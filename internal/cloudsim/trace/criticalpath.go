package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cloudsim/sortutil"
)

// PathStep is one hop of a trace's critical path with the wall time
// attributed to it: the step's own duration minus the duration of the
// child chosen to continue the path (a leaf keeps its whole
// duration). Cold-start and billing-quantum sub-segments appear as
// their own steps, so the attribution separates "waiting for a
// sandbox" and "paying the 100 ms quantum" from real work.
type PathStep struct {
	Service string
	Op      string
	Self    time.Duration
}

// CriticalPath extracts the trace's critical path: starting at the
// root, repeatedly descend into the longest-duration child (ties
// break on earlier start, then creation order), attributing to each
// step its self time along the chain.
func (v TraceView) CriticalPath() []PathStep {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	return v.s.criticalPathLocked(v.row)
}

func (s *Store) criticalPathLocked(row int32) []PathStep {
	kids := s.childrenLocked(row)
	lo := s.segLo[row]
	var path []PathStep
	rel := int32(0)
	for {
		i := lo + rel
		step := PathStep{Service: s.svcs.Name(s.segSvc[i]), Op: s.ops.Name(s.segOp[i]), Self: s.durLocked(i)}
		next := int32(-1)
		var nextDur time.Duration
		var nextStart int64
		for _, c := range kids[rel] {
			ci := lo + c
			d, st := s.durLocked(ci), s.segStart[ci]
			if next < 0 || d > nextDur || (d == nextDur && st < nextStart) {
				next, nextDur, nextStart = c, d, st
			}
		}
		if next >= 0 {
			if step.Self > nextDur {
				step.Self -= nextDur
			} else {
				step.Self = 0
			}
		}
		path = append(path, step)
		if next < 0 {
			return path
		}
		rel = next
	}
}

// CriticalStat aggregates the self time one (service, op) contributed
// across many critical paths.
type CriticalStat struct {
	Service string
	Op      string
	Count   int
	Self    time.Duration
}

// histBounds are the root-duration histogram bucket upper bounds; a
// final open bucket catches everything slower.
var histBounds = [...]time.Duration{
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
}

// HistBuckets is the number of root-duration histogram buckets.
const HistBuckets = len(histBounds) + 1

// CriticalProfile aggregates critical-path extraction over a set of
// traces: per-(service, op) self-time attribution plus a
// root-duration histogram. Step order is first-seen scan order;
// Render sorts for display.
type CriticalProfile struct {
	Traces int
	Steps  []CriticalStat
	Hist   [HistBuckets]int
}

// CriticalProfile extracts and aggregates the critical path of every
// stored trace whose root started in [from, to] (zero bounds are
// open). The scan counts every visited trace toward the scanned
// dimension.
func (s *Store) CriticalProfile(from, to time.Time) *CriticalProfile {
	if s == nil {
		return &CriticalProfile{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rows := s.windowLocked(from, to)
	s.scanned += int64(len(rows))

	p := &CriticalProfile{Traces: len(rows)}
	idx := make(map[[2]string]int)
	for _, row := range rows {
		for _, step := range s.criticalPathLocked(row) {
			k := [2]string{step.Service, step.Op}
			si, ok := idx[k]
			if !ok {
				si = len(p.Steps)
				idx[k] = si
				p.Steps = append(p.Steps, CriticalStat{Service: step.Service, Op: step.Op})
			}
			p.Steps[si].Count++
			p.Steps[si].Self += step.Self
		}
		p.Hist[histBucket(s.durLocked(s.segLo[row]))]++
	}
	return p
}

func histBucket(d time.Duration) int {
	for i, b := range histBounds {
		if d < b {
			return i
		}
	}
	return len(histBounds)
}

// Merge folds another profile into p — the control tower's fleet-wide
// rollup of per-account profiles.
func (p *CriticalProfile) Merge(o *CriticalProfile) {
	if o == nil {
		return
	}
	p.Traces += o.Traces
	for _, os := range o.Steps {
		found := false
		for i := range p.Steps {
			if p.Steps[i].Service == os.Service && p.Steps[i].Op == os.Op {
				p.Steps[i].Count += os.Count
				p.Steps[i].Self += os.Self
				found = true
				break
			}
		}
		if !found {
			p.Steps = append(p.Steps, os)
		}
	}
	for i, n := range o.Hist {
		p.Hist[i] += n
	}
}

// Render prints the profile: steps sorted by total self time
// (descending, then service/op), then the root-duration histogram.
func (p *CriticalProfile) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "critical path — %d traces\n", p.Traces)
	steps := append([]CriticalStat(nil), p.Steps...)
	sort.Slice(steps, func(i, j int) bool {
		if steps[i].Self != steps[j].Self {
			return steps[i].Self > steps[j].Self
		}
		if steps[i].Service != steps[j].Service {
			return steps[i].Service < steps[j].Service
		}
		return steps[i].Op < steps[j].Op
	})
	fmt.Fprintf(&sb, "  %-28s %9s %11s %11s\n", "STEP", "HITS", "AVG SELF", "TOTAL SELF")
	for _, st := range steps {
		avg := time.Duration(0)
		if st.Count > 0 {
			avg = st.Self / time.Duration(st.Count)
		}
		fmt.Fprintf(&sb, "  %-28s %9d %11s %11s\n", st.Service+" "+st.Op, st.Count,
			sortutil.FormatDuration(avg), sortutil.FormatDuration(st.Self))
	}
	labels := [HistBuckets]string{"<50ms", "50-100ms", "100-250ms", "250-500ms", "500ms-1s", ">=1s"}
	sb.WriteString("  duration histogram:")
	for i, n := range p.Hist {
		fmt.Fprintf(&sb, "  %s=%d", labels[i], n)
	}
	sb.WriteByte('\n')
	return sb.String()
}
