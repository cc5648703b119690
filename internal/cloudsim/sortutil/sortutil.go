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
//     names, and the logs store's field keys and repeated values.
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

// Names interns strings to dense int32 ids in first-seen order. The
// zero value is empty and ready to use. It has no lock of its own: the
// owning store guards it with its lock, hence IDLocked.
type Names struct {
	ids   map[string]int32
	names []string
}

// IDLocked returns s's id, assigning the next one on first sight. The
// interner keeps its own copy of a new name, so callers may pass a
// transient key (a stack-built concatenation) without it escaping.
// Caller holds the owning store's lock.
func (n *Names) IDLocked(s string) int32 {
	if id, ok := n.ids[s]; ok {
		return id
	}
	if n.ids == nil {
		n.ids = make(map[string]int32)
	}
	c := strings.Clone(s)
	id := int32(len(n.names))
	n.names = append(n.names, c)
	n.ids[c] = id
	return id
}

// Lookup returns s's id without inserting; ok is false on a miss.
func (n *Names) Lookup(s string) (id int32, ok bool) {
	id, ok = n.ids[s]
	return id, ok
}

// Name returns the string interned as id.
func (n *Names) Name(id int32) string { return n.names[id] }
