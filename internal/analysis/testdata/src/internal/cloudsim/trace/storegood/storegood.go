// Package storegood runs a trace store's publish path the fast way:
// rule keys are looked up without minting a string, deciding is a map
// read, and recording is a pointer append. Reads fold and format
// freely off-path. hotpath must stay silent.
package storegood

import "fmt"

// Store keeps its publish path to map reads and appends.
type Store struct {
	rules   map[string]float64
	pending []string
	rows    []string
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

// Record stages a trace with a single append.
func (s *Store) Record(name string) {
	s.pending = append(s.pending, name)
}

// Render is a read — dashboards, dumps — not reachable from the
// publish path, so folding and formatting here is fine.
func (s *Store) Render() string {
	s.rows = append(s.rows, s.pending...)
	s.pending = s.pending[:0]
	return fmt.Sprintf("%d rows", len(s.rows))
}
