package lambda

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/logs"
)

// sprintfLogLines is the historical fmt rendering of one invocation's
// stream name and START, END and REPORT lines — the reference
// writeLogLines must reproduce byte for byte.
func sprintfLogLines(reqNum, contID int64, memMB int, start time.Time, stats *InvocationStats, initDur time.Duration) (stream string, lines [3]string) {
	reqID := fmt.Sprintf("00000000-0000-4000-8000-%012x", reqNum)
	stream = start.UTC().Format("2006/01/02") + fmt.Sprintf("/[$LATEST]container-%06d", contID)
	report := fmt.Sprintf(
		"REPORT RequestId: %s\tDuration: %.2f ms\tBilled Duration: %d ms\tMemory Size: %d MB\tMax Memory Used: %d MB",
		reqID, float64(stats.RunTime)/float64(time.Millisecond),
		stats.BilledTime.Milliseconds(), memMB, stats.PeakMemoryBytes>>20)
	if stats.ColdStart {
		report += fmt.Sprintf("\tInit Duration: %.2f ms", float64(initDur)/float64(time.Millisecond))
	}
	return stream, [3]string{"START RequestId: " + reqID + " Version: $LATEST", "END RequestId: " + reqID, report}
}

// TestLogLinesMatchSprintf pins writeLogLines to the Sprintf renderings
// it replaced, over the edges of every formatted field: padding
// widths exceeded and negative values, sub-millisecond and rounding
// durations, a cold start's Init Duration, and dates on both sides of
// a UTC day boundary.
func TestLogLinesMatchSprintf(t *testing.T) {
	cases := []struct {
		reqNum, contID int64
		memMB          int
		start          time.Time
		stats          InvocationStats
		initDur        time.Duration
	}{
		{1, 1, 448, clock.Epoch, InvocationStats{RunTime: 123456789, BilledTime: 200 * time.Millisecond, PeakMemoryBytes: 40 << 20}, 0},
		{0xabcdef, 999999, 128, clock.Epoch.Add(23*time.Hour + 59*time.Minute), InvocationStats{RunTime: 5 * time.Microsecond, BilledTime: 100 * time.Millisecond, ColdStart: true}, 250*time.Millisecond + 4999*time.Nanosecond},
		{math.MaxInt64, 1234567, 1536, time.Date(2017, 12, 31, 23, 0, 0, 0, time.FixedZone("", -5*3600)), InvocationStats{RunTime: 3 * time.Second, BilledTime: 3 * time.Second, PeakMemoryBytes: 1<<20 - 1, ColdStart: true}, 5 * time.Millisecond},
		{-42, -7, 0, clock.Epoch, InvocationStats{RunTime: 0, BilledTime: 0, PeakMemoryBytes: -1 << 20}, -time.Millisecond},
		{0x1000000000000, 0, 256, clock.Epoch, InvocationStats{RunTime: 15 * time.Millisecond / 10, BilledTime: 100 * time.Millisecond, ColdStart: true}, 0},
	}
	for i, c := range cases {
		s := logs.New(clock.NewVirtual())
		writeLogLines(s, "fn", c.reqNum, c.contID, c.memMB, c.start, &c.stats, c.initDur)
		stream, want := sprintfLogLines(c.reqNum, c.contID, c.memMB, c.start, &c.stats, c.initDur)
		evs := s.Events(logs.LambdaGroup("fn"), time.Time{}, time.Time{})
		if len(evs) != 3 {
			t.Fatalf("case %d: %d events, want 3", i, len(evs))
		}
		for j, e := range evs {
			if e.Stream != stream || e.Message != want[j] {
				t.Errorf("case %d line %d:\n got %q %q\nwant %q %q", i, j, e.Stream, e.Message, stream, want[j])
			}
		}
		if !evs[0].Time.Equal(c.start) || !evs[2].Time.Equal(c.start.Add(c.stats.RunTime)) {
			t.Errorf("case %d: lines at %v..%v, want %v..%v", i, evs[0].Time, evs[2].Time, c.start, c.start.Add(c.stats.RunTime))
		}
	}
}

// TestLogLinesAllocs pins one invocation's three log lines at zero
// allocations once its stream exists: the lines are built on the stack
// and copied into the stream's arena. The store's columns still grow
// by doubling; over 1000 runs that is a few reallocations, which
// AllocsPerRun's integer average rounds away, while one allocation per
// invocation would not be.
func TestLogLinesAllocs(t *testing.T) {
	s := logs.New(clock.NewVirtual())
	stats := InvocationStats{RunTime: 87 * time.Millisecond, BilledTime: 100 * time.Millisecond, PeakMemoryBytes: 40 << 20, ColdStart: true}
	for i := int64(0); i < 1000; i++ {
		writeLogLines(s, "fn", i, 3, 448, clock.Epoch, &stats, 250*time.Millisecond)
	}
	n := int64(1000)
	if got := testing.AllocsPerRun(1000, func() {
		n++
		writeLogLines(s, "fn", n, 3, 448, clock.Epoch, &stats, 250*time.Millisecond)
	}); got != 0 {
		t.Fatalf("writeLogLines allocates %v times per invocation, want 0", got)
	}
}
