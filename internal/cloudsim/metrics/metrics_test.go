package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

func seeded() *Service {
	s := New()
	for i, v := range []float64{120, 130, 134, 140, 400} {
		s.Record("chat-fn", "run-ms", t0.Add(time.Duration(i)*time.Minute), v)
	}
	return s
}

func TestCountSumMax(t *testing.T) {
	s := seeded()
	if got := s.Count("chat-fn", "run-ms", time.Time{}, time.Time{}); got != 5 {
		t.Fatalf("count = %d", got)
	}
	if got := s.Sum("chat-fn", "run-ms", time.Time{}, time.Time{}); got != 924 {
		t.Fatalf("sum = %v", got)
	}
	if got := s.Max("chat-fn", "run-ms", time.Time{}, time.Time{}); got != 400 {
		t.Fatalf("max = %v", got)
	}
	if got := s.Max("chat-fn", "absent", time.Time{}, time.Time{}); got != 0 {
		t.Fatalf("absent max = %v", got)
	}
}

func TestWindowing(t *testing.T) {
	s := seeded()
	// Only the middle three samples (minutes 1..3).
	from, to := t0.Add(time.Minute), t0.Add(3*time.Minute)
	if got := s.Count("chat-fn", "run-ms", from, to); got != 3 {
		t.Fatalf("windowed count = %d", got)
	}
	if got := s.Max("chat-fn", "run-ms", from, to); got != 140 {
		t.Fatalf("windowed max = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	s := seeded()
	if got := s.Percentile("chat-fn", "run-ms", time.Time{}, time.Time{}, 50); got != 134 {
		t.Fatalf("p50 = %v, want 134", got)
	}
	if got := s.Percentile("chat-fn", "run-ms", time.Time{}, time.Time{}, 99); got != 400 {
		t.Fatalf("p99 = %v, want 400", got)
	}
	if got := s.Percentile("chat-fn", "run-ms", time.Time{}, time.Time{}, 0); got != 120 {
		t.Fatalf("p0 = %v, want 120", got)
	}
	if got := s.Percentile("none", "run-ms", time.Time{}, time.Time{}, 50); got != 0 {
		t.Fatalf("empty p50 = %v", got)
	}
}

// Nearest-rank percentile: rank ceil(p/100*n), so the p50 of an
// even-sized window is the n/2-th value, not the (n/2+1)-th, and the
// p100 is exactly the maximum.
func TestPercentileNearestRank(t *testing.T) {
	s := New()
	for i, v := range []float64{10, 20, 30, 40} {
		s.Record("ns", "m", t0.Add(time.Duration(i)*time.Minute), v)
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10},    // clamped to rank 1
		{25, 10},   // ceil(0.25*4) = 1
		{50, 20},   // ceil(0.5*4) = 2 — the old idx=n*p/100 formula said 30
		{75, 30},   // ceil(0.75*4) = 3
		{90, 40},   // ceil(0.9*4) = 4
		{99.9, 40}, // fractional p: ceil(0.999*4) = 4
		{100, 40},  // rank n, the maximum
	}
	for _, c := range cases {
		if got := s.Percentile("ns", "m", time.Time{}, time.Time{}, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	one := New()
	one.Record("ns", "m", t0, 7)
	if got := one.Percentile("ns", "m", time.Time{}, time.Time{}, 50); got != 7 {
		t.Errorf("single-sample p50 = %v, want 7", got)
	}
}

// NearestRank is the one shared rank formula (fleet stats reads its
// sorted samples through it too); pin the edge cases, in particular
// the float-noise one: 1000*99.9/100 evaluates to 999.0000000000001
// in IEEE 754, and a bare Ceil would skip past the true rank.
func TestNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int
	}{
		{0, 50, 0},        // empty: callers guard, but stay in range
		{1, 0, 0},         // clamped up to rank 1
		{1, 100, 0},       // single sample is every percentile
		{4, 50, 1},        // ceil(2) = rank 2
		{4, 50.1, 2},      // just past the boundary: rank 3
		{1000, 99.9, 998}, // exactly rank 999 despite float noise
		{1000, 100, 999},
		{10, 120, 9}, // out-of-range p clamps to rank n
	}
	for _, c := range cases {
		if got := NearestRank(c.n, c.p); got != c.want {
			t.Errorf("NearestRank(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// Max must not report 0 for a window whose samples are all negative
// (e.g. a clock-skew or error-delta gauge).
func TestMaxAllNegative(t *testing.T) {
	s := New()
	for i, v := range []float64{-30, -5, -12} {
		s.Record("ns", "m", t0.Add(time.Duration(i)*time.Minute), v)
	}
	if got := s.Max("ns", "m", time.Time{}, time.Time{}); got != -5 {
		t.Fatalf("all-negative max = %v, want -5", got)
	}
}

// The window bounds must behave identically now that the from bound is
// binary-searched: inclusive on both ends, unbounded on zero times.
func TestWindowBounds(t *testing.T) {
	s := seeded()
	// Exactly-on-boundary samples are included.
	from, to := t0.Add(time.Minute), t0.Add(3*time.Minute)
	if got := s.Sum("chat-fn", "run-ms", from, to); got != 130+134+140 {
		t.Fatalf("inclusive window sum = %v", got)
	}
	// from after the last sample, and to before the first: empty.
	if got := s.Count("chat-fn", "run-ms", t0.Add(time.Hour), time.Time{}); got != 0 {
		t.Fatalf("late-from count = %d", got)
	}
	if got := s.Count("chat-fn", "run-ms", time.Time{}, t0.Add(-time.Minute)); got != 0 {
		t.Fatalf("early-to count = %d", got)
	}
	// Half-open bounds.
	if got := s.Count("chat-fn", "run-ms", t0.Add(4*time.Minute), time.Time{}); got != 1 {
		t.Fatalf("from-only count = %d", got)
	}
	if got := s.Count("chat-fn", "run-ms", time.Time{}, t0); got != 1 {
		t.Fatalf("to-only count = %d", got)
	}
}

// BenchmarkWindowNarrow is the regression benchmark for the window
// lookup: a narrow window over a long append-ordered series should
// cost O(log n + w), not O(n).
func BenchmarkWindowNarrow(b *testing.B) {
	s := New()
	const n = 100_000
	for i := 0; i < n; i++ {
		s.Record("ns", "m", t0.Add(time.Duration(i)*time.Second), float64(i))
	}
	from := t0.Add((n - 50) * time.Second)
	to := t0.Add((n - 40) * time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Count("ns", "m", from, to); got != 11 {
			b.Fatalf("count = %d", got)
		}
	}
}

func TestMetricsListing(t *testing.T) {
	s := seeded()
	s.Record("chat-fn", "billed-ms", t0, 200)
	s.Record("other-fn", "run-ms", t0, 1)
	got := s.Metrics("chat-fn")
	if len(got) != 2 || got[0] != "billed-ms" || got[1] != "run-ms" {
		t.Fatalf("metrics = %v", got)
	}
	if len(s.Metrics("ghost")) != 0 {
		t.Fatal("listing for unknown namespace")
	}
}

// Regression: window binary-searches on timestamp order, but samples
// from concurrent request flows can arrive out of order — Record must
// insertion-sort them into place or every windowed stat silently lies.
func TestRecordOutOfOrder(t *testing.T) {
	s := New()
	// Publish in scrambled order, including a duplicate timestamp.
	mins := []int{3, 0, 4, 1, 4, 2}
	for _, m := range mins {
		s.Record("ns", "m", t0.Add(time.Duration(m)*time.Minute), float64(m))
	}
	// The window [1m, 3m] must see exactly minutes 1, 2, 3 regardless of
	// arrival order; before the fix the binary search skipped samples
	// stranded before an earlier-timestamped neighbour.
	if got := s.Count("ns", "m", t0.Add(time.Minute), t0.Add(3*time.Minute)); got != 3 {
		t.Fatalf("windowed count = %d, want 3", got)
	}
	if got := s.Sum("ns", "m", t0.Add(time.Minute), t0.Add(3*time.Minute)); got != 1+2+3 {
		t.Fatalf("windowed sum = %v, want 6", got)
	}
	// The full series must be sorted.
	all := s.window("ns", "m", time.Time{}, time.Time{})
	for i := 1; i < len(all); i++ {
		if all[i-1].At.After(all[i].At) {
			t.Fatalf("series out of order at %d: %v > %v", i, all[i-1].At, all[i].At)
		}
	}
	// Stability: equal timestamps keep arrival order (both minute-4
	// samples, first-recorded first). Both have value 4 here, so order
	// them by a second series with distinct values.
	s2 := New()
	s2.Record("ns", "m", t0, 1)
	s2.Record("ns", "m", t0.Add(time.Minute), 2)
	s2.Record("ns", "m", t0.Add(time.Minute), 3)
	got := s2.window("ns", "m", time.Time{}, time.Time{})
	if got[1].Value != 2 || got[2].Value != 3 {
		t.Fatalf("equal-timestamp order not stable: %v", got)
	}
}

// Property test: all five windowed statistics must agree with a
// brute-force reference over random series and random windows,
// including out-of-order recording.
func TestStatsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		s := New()
		n := 1 + rng.Intn(60)
		type sample struct {
			at time.Time
			v  float64
		}
		samples := make([]sample, n)
		for i := range samples {
			samples[i] = sample{
				at: t0.Add(time.Duration(rng.Intn(120)) * time.Second),
				v:  math.Round(rng.Float64()*200-50) / 2,
			}
			s.Record("ns", "m", samples[i].at, samples[i].v)
		}
		for w := 0; w < 10; w++ {
			from := t0.Add(time.Duration(rng.Intn(130)-5) * time.Second)
			to := from.Add(time.Duration(rng.Intn(90)) * time.Second)
			var in []float64
			for _, sm := range samples {
				if !sm.at.Before(from) && !sm.at.After(to) {
					in = append(in, sm.v)
				}
			}
			wantCount := len(in)
			var wantSum float64
			wantMin, wantMax := 0.0, 0.0
			if wantCount > 0 {
				wantMin, wantMax = in[0], in[0]
			}
			for _, v := range in {
				wantSum += v
				if v < wantMin {
					wantMin = v
				}
				if v > wantMax {
					wantMax = v
				}
			}
			wantAvg := 0.0
			if wantCount > 0 {
				wantAvg = wantSum / float64(wantCount)
			}
			if got := s.Count("ns", "m", from, to); got != wantCount {
				t.Fatalf("trial %d: count = %d, want %d", trial, got, wantCount)
			}
			if got := s.Sum("ns", "m", from, to); math.Abs(got-wantSum) > 1e-9 {
				t.Fatalf("trial %d: sum = %v, want %v", trial, got, wantSum)
			}
			if got := s.Min("ns", "m", from, to); got != wantMin {
				t.Fatalf("trial %d: min = %v, want %v", trial, got, wantMin)
			}
			if got := s.Max("ns", "m", from, to); got != wantMax {
				t.Fatalf("trial %d: max = %v, want %v", trial, got, wantMax)
			}
			if got := s.Avg("ns", "m", from, to); math.Abs(got-wantAvg) > 1e-9 {
				t.Fatalf("trial %d: avg = %v, want %v", trial, got, wantAvg)
			}
			// Percentiles against a sorted copy, every decile.
			if wantCount > 0 {
				sorted := append([]float64(nil), in...)
				sort.Float64s(sorted)
				for p := 0; p <= 100; p += 10 {
					rank := (p*wantCount + 99) / 100
					if rank < 1 {
						rank = 1
					}
					if got, want := s.Percentile("ns", "m", from, to, float64(p)), sorted[rank-1]; got != want {
						t.Fatalf("trial %d: p%d = %v, want %v", trial, p, got, want)
					}
				}
			}
		}
	}
}

// Every registered metric name must be well-formed and unique — the
// same contract the metricname analyzer enforces statically.
func TestRegistry(t *testing.T) {
	names := Names()
	seen := make(map[string]bool)
	for _, n := range names {
		if !ValidName(n) {
			t.Errorf("registered name %q is not lowercase dot-separated", n)
		}
		if seen[n] {
			t.Errorf("registered name %q is duplicated", n)
		}
		seen[n] = true
		if !Registered(n) {
			t.Errorf("Registered(%q) = false for a listed name", n)
		}
	}
	if Registered("plane.requets") {
		t.Error("typo'd name reported as registered")
	}
	for bad, why := range map[string]string{
		"Plane.Requests": "uppercase",
		"plane":          "no dot",
		"plane..req":     "empty segment",
		"plane.9req":     "segment starts with a digit",
		"plane.req-ms":   "dash",
	} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true (%s)", bad, why)
		}
	}
}

func TestNamespaces(t *testing.T) {
	s := seeded()
	s.Record("other-fn", "run-ms", t0, 1)
	got := s.Namespaces()
	if len(got) != 2 || got[0] != "chat-fn" || got[1] != "other-fn" {
		t.Fatalf("namespaces = %v", got)
	}
	if s.SeriesCount() != 2 {
		t.Fatalf("series count = %d", s.SeriesCount())
	}
}

func TestConcurrent(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				s.Record("ns", "m", t0, float64(j))
				s.Percentile("ns", "m", time.Time{}, time.Time{}, 50)
			}
		}(i)
	}
	wg.Wait()
	if got := s.Count("ns", "m", time.Time{}, time.Time{}); got != 1600 {
		t.Fatalf("count = %d", got)
	}
}

// TestHandleInterningInvisible pins that interning a handle is free:
// until a sample lands, the series does not exist for listings,
// counts, or the inventory bill.
func TestHandleInterningInvisible(t *testing.T) {
	s := New()
	h := s.Handle("svc/op", MetricPlaneRequests)
	if got := s.SeriesCount(); got != 0 {
		t.Fatalf("SeriesCount = %d after interning only, want 0", got)
	}
	if got := s.Metrics("svc/op"); len(got) != 0 {
		t.Fatalf("Metrics listed %v for an unsampled series", got)
	}
	if got := s.Namespaces(); len(got) != 0 {
		t.Fatalf("Namespaces listed %v for an unsampled series", got)
	}
	s.Record("svc/op", MetricPlaneRequests, t0, 1)
	if got := s.SeriesCount(); got != 1 {
		t.Fatalf("SeriesCount = %d after first sample, want 1", got)
	}
	// Re-interning resolves to the same handle.
	if h2 := s.Handle("svc/op", MetricPlaneRequests); h2 != h {
		t.Fatalf("re-interning returned handle %d, want %d", h2, h)
	}
}

// TestChunkedStatsAgainstBruteForce crosses chunk boundaries (several
// thousand samples, shuffled arrival order) and compares every windowed
// statistic against a straight recomputation, so the chunked columns
// and the out-of-order shift path agree with the obvious
// implementation, the sum bit for bit.
func TestChunkedStatsAgainstBruteForce(t *testing.T) {
	s := New()
	const n = 3 * chunkLen // three full chunks and change
	rng := rand.New(rand.NewSource(42))
	type dat struct {
		at time.Time
		v  float64
	}
	all := make([]dat, n)
	for i := range all {
		all[i] = dat{at: t0.Add(time.Duration(i) * time.Second), v: rng.Float64() * 1000}
	}
	// Publish in shuffled order: exercises the insert-shift path across
	// chunk boundaries.
	perm := rng.Perm(n)
	for _, i := range perm {
		s.Record("svc/op", MetricPlaneLatencyMs, all[i].at, all[i].v)
	}

	windows := []struct{ lo, hi int }{
		{0, n},                       // everything
		{0, 10},                      // a short prefix
		{253, 259},                   // a short interior window
		{chunkLen - 5, chunkLen + 5}, // straddling a chunk edge
		{chunkLen, 2 * chunkLen},     // exactly one whole chunk
		{17, n - 17},                 // partial edges both sides
	}
	for _, w := range windows {
		from, to := all[w.lo].at, all[w.hi-1].at
		var sum, min, max float64
		for i := w.lo; i < w.hi; i++ {
			v := all[i].v
			sum += v
			if i == w.lo || v < min {
				min = v
			}
			if i == w.lo || v > max {
				max = v
			}
		}
		if got := s.Count("svc/op", MetricPlaneLatencyMs, from, to); got != w.hi-w.lo {
			t.Errorf("window [%d,%d): Count = %d, want %d", w.lo, w.hi, got, w.hi-w.lo)
		}
		if got := s.Min("svc/op", MetricPlaneLatencyMs, from, to); got != min {
			t.Errorf("window [%d,%d): Min = %v, want %v", w.lo, w.hi, got, min)
		}
		if got := s.Max("svc/op", MetricPlaneLatencyMs, from, to); got != max {
			t.Errorf("window [%d,%d): Max = %v, want %v", w.lo, w.hi, got, max)
		}
		if got := s.Sum("svc/op", MetricPlaneLatencyMs, from, to); got != sum {
			t.Errorf("window [%d,%d): Sum = %v, want %v", w.lo, w.hi, got, sum)
		}
		if got, want := s.Avg("svc/op", MetricPlaneLatencyMs, from, to), sum/float64(w.hi-w.lo); got != want {
			t.Errorf("window [%d,%d): Avg = %v, want %v", w.lo, w.hi, got, want)
		}
	}
}

// TestSeriesStatsExactSum pins SeriesStats, the path the fleet control
// tower rolls each account's latency series up through, to the
// in-order float sum bit for bit over a long series of fractional
// samples published in shuffled order.
func TestSeriesStatsExactSum(t *testing.T) {
	s := New()
	const n = 700
	rng := rand.New(rand.NewSource(43))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64() * 250
	}
	for _, i := range rng.Perm(n) {
		s.Record("svc/op", MetricPlaneLatencyMs, t0.Add(time.Duration(i)*time.Millisecond), vals[i])
	}
	var sum float64
	min, max := vals[0], vals[0]
	for _, v := range vals {
		sum += v
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	stats := s.SeriesStats()
	want := SeriesStat{Namespace: "svc/op", Metric: MetricPlaneLatencyMs, Count: n, Sum: sum, Min: min, Max: max, Last: vals[n-1]}
	if len(stats) != 1 || stats[0] != want {
		t.Fatalf("SeriesStats = %+v, want [%+v]", stats, want)
	}
}
