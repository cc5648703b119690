// Package sortutil holds the small ordering and storage helpers the
// simulator's determinism discipline and its three telemetry stores
// lean on:
//
//   - SortedKeys: iterate maps in sorted key order. Go randomizes map
//     iteration per run, so any map range whose order can reach
//     observable output — a ledger line, a log event, a metric sample,
//     rendered text — must walk SortedKeys(m) instead. The maporder
//     analyzer (internal/analysis) enforces the rule.
//   - Window: the one inclusive time-window search over a
//     timestamp-ordered column, shared by the metrics series, the logs
//     merged order and the trace start order.
//   - Names: the one string interner, behind metrics series handles,
//     the trace store's service, operation, annotation-key and usage
//     names, and the logs store's field keys and repeated values. A
//     Frozen table of names every store starts with is built once and
//     shared as an interner's base.
//   - Chunks: the one append-only column the logs and trace stores
//     keep retained events in, pointer-free, in chunks that are never
//     copied as it grows, addressed by int32 offsets.
package sortutil

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"time"
)

// SortedKeys returns m's keys in ascending order. The result is a fresh
// slice; callers may keep or mutate it.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Window locates the half-open index range [lo, hi) of the n entries
// whose timestamps fall within [from, to], both ends inclusive; a zero
// bound is open. at(i) is entry i's UnixNano timestamp and must be
// non-decreasing in i, so both bounds are binary searches. An empty or
// inverted window returns lo == hi.
func Window(n int, at func(int) int64, from, to time.Time) (lo, hi int) {
	lo, hi = 0, n
	if !from.IsZero() {
		f := from.UnixNano()
		lo = sort.Search(n, func(i int) bool { return at(i) >= f })
	}
	if !to.IsZero() {
		t := to.UnixNano()
		hi = lo + sort.Search(n-lo, func(i int) bool { return at(lo+i) > t })
	}
	return lo, hi
}

// Frozen is an immutable name table: Freeze builds it once and
// nothing writes it after, so any number of stores on any number of
// goroutines may share one as the base of their Names. A nil *Frozen
// is the empty table.
type Frozen struct {
	ids   map[string]int32
	names []string
}

// Freeze returns a table holding names with ids 0, 1, ... in order. A
// repeated name panics: it would leave an id no lookup returns.
func Freeze(names ...string) *Frozen {
	f := &Frozen{ids: make(map[string]int32, len(names)), names: make([]string, len(names))}
	for i, s := range names {
		if _, dup := f.ids[s]; dup {
			panic("sortutil: Freeze: repeated name " + s)
		}
		f.names[i] = s
		f.ids[s] = int32(i)
	}
	return f
}

// Len reports how many names the table holds.
func (f *Frozen) Len() int {
	if f == nil {
		return 0
	}
	return len(f.names)
}

// Names interns strings to dense int32 ids in first-seen order, after
// the ids of its frozen base (NamesOver), which come first. The zero
// value has no base and is empty and ready to use. It has no lock of
// its own: the owning store guards it with its lock, hence IDLocked.
// The base is only read, never written.
type Names struct {
	base  *Frozen
	ids   map[string]int32
	names []string
}

// NamesOver returns an interner whose first base.Len() ids are base's
// names, shared rather than copied.
func NamesOver(base *Frozen) Names { return Names{base: base} }

// IDLocked returns s's id, assigning the next one on first sight. The
// interner keeps its own copy of a new name, so callers may pass a
// transient key (a stack-built concatenation) without it escaping.
// Caller holds the owning store's lock.
func (n *Names) IDLocked(s string) int32 {
	if id, ok := n.Lookup(s); ok {
		return id
	}
	if n.ids == nil {
		n.ids = make(map[string]int32)
	}
	c := strings.Clone(s)
	id := int32(n.base.Len() + len(n.names))
	n.names = append(n.names, c)
	n.ids[c] = id
	return id
}

// Lookup returns s's id without inserting; ok is false on a miss.
func (n *Names) Lookup(s string) (id int32, ok bool) {
	if n.base != nil {
		if id, ok = n.base.ids[s]; ok {
			return id, true
		}
	}
	id, ok = n.ids[s]
	return id, ok
}

// Name returns the string interned as id.
func (n *Names) Name(id int32) string {
	if b := n.base.Len(); int(id) >= b {
		return n.names[int(id)-b]
	}
	return n.base.names[id]
}
