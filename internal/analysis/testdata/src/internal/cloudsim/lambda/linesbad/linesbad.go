// Package linesbad writes a lambda platform's per-invocation log lines
// the slow way: the request id and the REPORT line are formatted with
// fmt per invocation, directly in writeLogLines and through a helper
// only it reaches. hotpath must flag every formatting site it can
// reach from writeLogLines.
package linesbad

import (
	"fmt"
	"sync"
	"time"
)

// Sink is a sketch of the log store the lines land in.
type Sink struct {
	mu    sync.Mutex
	lines []string
}

// Platform mints request ids and writes each invocation's lines.
type Platform struct {
	mu     sync.Mutex
	logs   *Sink
	nextID int64
}

// Invoke runs one invocation and logs it.
func (p *Platform) Invoke(fn string, start time.Time, run time.Duration) {
	p.mu.Lock()
	p.nextID++
	n := p.nextID
	p.mu.Unlock()
	writeLogLines(p.logs, fn, n, start, run)
}

// writeLogLines is the per-invocation block the seam roots.
func writeLogLines(s *Sink, fn string, reqNum int64, start time.Time, run time.Duration) {
	reqID := fmt.Sprintf("00000000-0000-4000-8000-%012x", reqNum) // flagged: per-invocation format
	s.mu.Lock()
	s.lines = append(s.lines, "START RequestId: "+reqID, report(reqID, run))
	s.mu.Unlock()
}

// report is reached only through writeLogLines, so its format runs per
// invocation just the same.
func report(reqID string, run time.Duration) string {
	return fmt.Sprintf("REPORT RequestId: %s\tDuration: %.2f ms", reqID, float64(run)/float64(time.Millisecond)) // flagged: reached from writeLogLines
}

// Summary formats off the per-invocation path; hotpath must stay
// silent here.
func Summary(s *Sink) string {
	return fmt.Sprintf("%d lines", len(s.lines))
}
