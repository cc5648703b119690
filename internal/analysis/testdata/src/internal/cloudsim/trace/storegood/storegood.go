// Package storegood runs a trace store's publish path the fast way:
// rule keys are looked up without minting a string, deciding is a map
// read, and finishing a trace folds it into the rows with an append.
// Reads format freely off-path. hotpath must stay silent.
package storegood

import "fmt"

// Store keeps its publish path to map reads and appends.
type Store struct {
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
	s    *Store
	name string
	done bool
}

// Finish closes the root span and, the first time, folds the trace
// into the rows with a single append.
func (t *Trace) Finish() {
	if t.done {
		return
	}
	t.done = true
	t.s.rows = append(t.s.rows, t.name)
}

// Render is a read — dashboards, dumps — not reachable from the
// publish path, so formatting here is fine.
func (s *Store) Render() string {
	return fmt.Sprintf("%d rows", len(s.rows))
}
