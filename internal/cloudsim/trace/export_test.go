package trace

import "time"

// Stored returns a view of every stored trace in start order. The
// retrieval counts toward the scanned dimension.
func (s *Store) Stored() []TraceView {
	return s.Window(time.Time{}, time.Time{})
}

// Annotations returns the segment's annotations in insertion order.
func (g SegmentView) Annotations() []Annotation {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	lo, hi := g.s.annoLo[g.seg], g.s.annoHi[g.seg]
	out := make([]Annotation, 0, hi-lo)
	for a := lo; a < hi; a++ {
		out = append(out, Annotation{Key: g.s.annoKeys[a], Value: g.s.annoVals[a]})
	}
	return out
}
