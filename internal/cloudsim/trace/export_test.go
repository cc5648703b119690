package trace

import (
	"strings"
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
		r := s.segs.At(i)
		g := storedSeg{
			Service: s.svcs.Name(r.svc),
			Op:      s.ops.Name(r.op),
			Parent:  int(r.parent),
			Start:   time.Unix(0, r.start).UTC(),
		}
		if r.end != noEnd {
			g.End = time.Unix(0, r.end).UTC()
		}
		for a := r.annoLo; a < r.annoHi; a++ {
			g.Annos = append(g.Annos, Annotation{Key: s.annoKeys.Name(s.annos.At(a).key), Value: strings.Clone(s.annoVal(a))})
		}
		for u := r.useLo; u < r.useHi; u++ {
			g.Usage = append(g.Usage, s.usageAt(u))
		}
		if book != nil {
			g.Cost = s.rowCostLocked(&r, book)
		}
		out = append(out, g)
	}
	return out
}
