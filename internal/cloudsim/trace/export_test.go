package trace

import (
	"time"

	"repro/internal/pricing"
)

// Stored returns a view of every stored trace in start order. The
// retrieval counts toward the scanned dimension.
func (s *Store) Stored() []TraceView {
	return s.Window(time.Time{}, time.Time{})
}

// storedSeg is one stored segment exactly as the columns hold it.
type storedSeg struct {
	Service, Op string
	Parent      int       // preorder index of the parent in the trace, -1 at the root
	Start, End  time.Time // End is zero for a span never finished before its root
	Annos       []Annotation
	Usage       []pricing.Usage
	Cost        pricing.Money // the segment's own usage at list price; 0 for a nil book
}

// segments reads every segment of v in preorder straight from the
// store's columns. It is the tests' one way to see what the fold
// wrote; the shipped read API (Find, Render, the analytics) reads the
// same columns.
func segments(v TraceView, book *pricing.PriceBook) []storedSeg {
	s := v.s
	s.mu.Lock()
	defer s.mu.Unlock()
	lo, hi := s.segLo[v.row], s.segHi[v.row]
	out := make([]storedSeg, 0, hi-lo)
	for i := lo; i < hi; i++ {
		g := storedSeg{
			Service: s.svcs.Name(s.segSvc[i]),
			Op:      s.ops.Name(s.segOp[i]),
			Parent:  int(s.segParent[i]),
			Start:   time.Unix(0, s.segStart[i]).UTC(),
		}
		if s.segEnd[i] != noEnd {
			g.End = time.Unix(0, s.segEnd[i]).UTC()
		}
		for a := s.annoLo[i]; a < s.annoHi[i]; a++ {
			g.Annos = append(g.Annos, Annotation{Key: s.annoKeys[a], Value: s.annoVals[a]})
		}
		g.Usage = append(g.Usage, s.usages[s.useLo[i]:s.useHi[i]]...)
		if book != nil {
			g.Cost = s.segCostLocked(i, book)
		}
		out = append(out, g)
	}
	return out
}
