// Package storebad runs a trace store's publish path the slow way:
// the sampling decision formats its rule key per request, finishing a
// trace folds it through a per-call map literal and a helper that
// formats, and annotating a span formats its value into the trace's
// slab with no lock held. hotpath must flag every site it can reach
// from Decide, Record, Finish and Annotate, and shardsafe every
// unguarded write on that path.
package storebad

import "fmt"

// Store is a sketch of the columnar trace store: the shapes matter to
// the analyzer, not the storage.
type Store struct {
	rules  map[string]float64
	rows   []string
	labels []string
}

// Decide formats the rule-lookup key on every sampling decision — the
// exact allocation interned rule indices exist to remove.
func (s *Store) Decide(service, op string) bool {
	key := fmt.Sprintf("%s/%s", service, op) // flagged: per-decision format
	return s.rules[key] > 0
}

// Record is the fold Finish hands a trace to: it binds the row's
// fields through a per-call map literal.
func (s *Store) Record(name string) {
	fields := map[string]string{"name": name} // flagged: per-fold map literal
	s.rows = append(s.rows, fields["name"])
}

// stage labels a folded row. Only Finish reaches it — Record does
// not call it — so its finding is what proves Finish roots the seam
// in its own right.
func stage(s *Store, name string) {
	s.labels = append(s.labels, fmt.Sprint("folded:", name)) // flagged: reached from Finish
}

// Trace is a sketch of a live trace bound for its store.
type Trace struct {
	s    *Store
	name string
	done bool
	slab *slab
}

// slab is the trace's reusable span storage.
type slab struct {
	annos []string
}

// Span is a handle on one slot of its trace's slab.
type Span struct {
	t *Trace
}

// Annotate formats the pair per call and writes the slab without the
// trace's lock.
func (sp *Span) Annotate(key, value string) {
	sp.t.slab.annos = append(sp.t.slab.annos, fmt.Sprint(key, "=", value)) // flagged: hotpath format, shardsafe write
}

// Finish closes the root span and, the first time, folds the trace
// into its store — the publish entry, run once per request.
func (t *Trace) Finish() {
	if t.done {
		return
	}
	t.done = true
	t.s.Record(t.name)
	stage(t.s, t.name)
}

// Render is a read, off the publish path: it formats every row, and
// hotpath must stay silent here even in a package that defines Finish.
func (s *Store) Render() string {
	out := fmt.Sprintf("%d rows", len(s.rows))
	for _, r := range s.rows {
		out += fmt.Sprintf(" row(%s)", r)
	}
	return out
}
