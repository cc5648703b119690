// Package storebad runs a trace store's publish path the slow way:
// the sampling decision formats its rule key per request, and
// recording binds fields through a per-call map literal and a helper
// that formats. hotpath must flag every site it can reach from Record
// and Decide.
package storebad

import "fmt"

// Store is a sketch of the columnar trace store: the shapes matter to
// the analyzer, not the storage.
type Store struct {
	rules   map[string]float64
	pending []string
	rows    []string
}

// Decide formats the rule-lookup key on every sampling decision — the
// exact allocation interned rule indices exist to remove.
func (s *Store) Decide(service, op string) bool {
	key := fmt.Sprintf("%s/%s", service, op) // flagged: per-decision format
	return s.rules[key] > 0
}

// Record stages a trace through a per-call map literal and a
// same-package helper that formats.
func (s *Store) Record(name string) {
	fields := map[string]string{"name": name} // flagged: per-record map literal
	s.pending = append(s.pending, fields["name"])
	stage(s, name)
}

// stage is a same-package callee of Record: its formatting runs per
// recorded trace just the same, so the fixpoint must reach it.
func stage(s *Store, name string) {
	s.pending = append(s.pending, fmt.Sprint("staged:", name)) // flagged: reached from Record
}

// Render is a read, off the publish path: it folds the staged traces
// and formats, and hotpath must stay silent here even in a package
// that defines Record.
func (s *Store) Render() string {
	for _, p := range s.pending {
		s.rows = append(s.rows, fmt.Sprintf("row(%s)", p))
	}
	s.pending = s.pending[:0]
	return fmt.Sprintf("%d rows", len(s.rows))
}
