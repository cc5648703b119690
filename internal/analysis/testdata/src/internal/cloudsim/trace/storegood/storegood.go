// Package storegood runs a trace store's publish path the fast way:
// rule keys are looked up without minting a string, deciding is a map
// read, finishing a trace folds it into the rows with an append under
// the store's lock, and annotating a span appends into the trace's
// slab under the trace's lock. Reads format freely off-path. hotpath
// and shardsafe must stay silent.
package storegood

import (
	"fmt"
	"sync"
)

// Store keeps its publish path to map reads and appends.
type Store struct {
	mu    sync.Mutex
	rules map[string]float64
	rows  []string
}

// NewStore builds the rule table up front (allowed: the allocation
// happens once, not per call).
func NewStore() *Store {
	return &Store{rules: make(map[string]float64)}
}

// Decide is a concatenation-free rule lookup: service and op index a
// nested read, no per-decision string is minted.
func (s *Store) Decide(service, op string) bool {
	return s.rules[service+"/"+op] > 0
}

// Trace is a live trace bound for its store.
type Trace struct {
	mu   sync.Mutex
	s    *Store
	name string
	done bool
	slab *slab
}

// slab is the trace's reusable span storage.
type slab struct {
	keys, vals []string
}

// Span is a handle on one slot of its trace's slab.
type Span struct {
	t *Trace
}

// Finish closes the root span and, the first time, folds the trace
// into the rows with a single append.
func (t *Trace) Finish() {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	t.s.rows = append(t.s.rows, t.name)
}

// Annotate writes the slab under the trace's lock, through a helper
// named for the lock its caller holds.
func (sp *Span) Annotate(key, value string) {
	sp.t.mu.Lock()
	sp.t.slab.annotateLocked(key, value)
	sp.t.mu.Unlock()
}

// annotateLocked appends the pair. Caller holds the trace's mu.
func (sl *slab) annotateLocked(key, value string) {
	sl.keys = append(sl.keys, key)
	sl.vals = append(sl.vals, value)
}

// Render is a read — dashboards, dumps — not reachable from the
// publish path, so formatting here is fine.
func (s *Store) Render() string {
	return fmt.Sprintf("%d rows", len(s.rows))
}
