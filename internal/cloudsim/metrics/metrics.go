// Package metrics simulates the monitoring service the paper's
// prototype measurements came from (Table 3's "Med. Lambda Time
// Billed/Run" and "Peak Memory Used" are CloudWatch statistics on real
// AWS). The lambda platform publishes one datum per invocation, and
// the plane interceptor (see PlaneInterceptor) auto-publishes RED and
// cost series for every service API call; the experiment harness, the
// alarm state machine (alarm.go), and `diyctl metrics` query windowed
// statistics over the stored series.
//
// Storage is built for a hot write path: each (namespace, metric)
// series is interned to an integer Handle once, and samples live in
// fixed-size pointer-free column chunks (nanosecond timestamps and
// values side by side). Chunks are never reallocated, so a
// million-sample series costs zero copy-on-growth and the garbage
// collector never scans the data. Every statistic scans its window in
// timestamp order, so a sum is the same float sum however the window
// is placed. Publishers on the request plane insert directly into the
// series store, so every query and alarm evaluation sees every sample
// published before it.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloudsim/sortutil"
)

// Datum is one recorded sample.
type Datum struct {
	At    time.Time
	Value float64
}

// Handle is an interned reference to one (namespace, metric) series.
// Resolving a handle once and publishing through it skips the
// per-call key build and map lookup of Record.
type Handle int32

// Chunked column geometry: chunkLen samples per chunk.
const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift // 1024 samples, 16 KiB per chunk
	chunkMask  = chunkLen - 1
)

// chunk is one fixed-size run of a series' columns. Allocated once,
// never copied, and — being pointer-free — never scanned by the GC.
type chunk struct {
	ats  [chunkLen]int64 // UnixNano
	vals [chunkLen]float64
}

// series is one stored time series: timestamp-ordered samples in
// chunked columns.
type series struct {
	namespace string
	metric    string
	chunks    []*chunk
	n         int // total samples
}

func (sx *series) at(i int) int64    { return sx.chunks[i>>chunkShift].ats[i&chunkMask] }
func (sx *series) val(i int) float64 { return sx.chunks[i>>chunkShift].vals[i&chunkMask] }

func (sx *series) set(i int, ns int64, v float64) {
	c := sx.chunks[i>>chunkShift]
	c.ats[i&chunkMask] = ns
	c.vals[i&chunkMask] = v
}

// Service stores time-series samples by (namespace, metric) and hosts
// the alarms that watch them (alarm.go). It is safe for concurrent
// use.
type Service struct {
	mu     sync.Mutex
	series []*series
	names  sortutil.Names // key(namespace, metric) -> Handle
	alarms []*Alarm
}

// New returns an empty metrics service.
func New() *Service {
	return &Service{}
}

func key(namespace, metric string) string { return namespace + "\x00" + metric }

// Handle interns a (namespace, metric) series and returns its handle.
// The series itself stays invisible to listings, counts, and the
// exposition until its first sample lands — interning is free.
func (s *Service) Handle(namespace, metric string) Handle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handleLocked(namespace, metric)
}

// handleLocked resolves or creates the series for (namespace, metric).
// Caller holds s.mu.
func (s *Service) handleLocked(namespace, metric string) Handle {
	h := Handle(s.names.IDLocked(key(namespace, metric)))
	if int(h) == len(s.series) {
		s.series = append(s.series, &series{namespace: namespace, metric: metric})
	}
	return h
}

// Record stores one sample, keeping the series ordered by timestamp.
// Most publishers emit in clock order so the common case is a plain
// append into the current chunk, but concurrent request flows each
// carry their own cursor and can land samples slightly out of order;
// those are shifted into place (stably: a sample never moves past an
// equal timestamp) so the windowed statistics' binary search stays
// correct.
func (s *Service) Record(namespace, metric string, at time.Time, value float64) {
	s.mu.Lock()
	s.insertLocked(s.handleLocked(namespace, metric), at.UnixNano(), value)
	s.mu.Unlock()
}

// insertLocked places one sample into a series in timestamp order.
// Caller holds s.mu.
func (s *Service) insertLocked(h Handle, ns int64, value float64) {
	sx := s.series[h]
	n := sx.n
	if n&chunkMask == 0 && n>>chunkShift == len(sx.chunks) {
		sx.chunks = append(sx.chunks, newChunk())
	}
	if n == 0 || sx.at(n-1) <= ns {
		// In-order append — the steady state. No data moves.
		sx.set(n, ns, value)
		sx.n = n + 1
		return
	}
	// Out-of-order: shift the tail right one slot and drop the sample
	// at its timestamp position (after any equal timestamps, keeping
	// arrival order stable).
	pos := sort.Search(n, func(i int) bool { return sx.at(i) > ns })
	for i := n; i > pos; i-- {
		sx.set(i, sx.at(i-1), sx.val(i-1))
	}
	sx.set(pos, ns, value)
	sx.n = n + 1
}

// lookupLocked returns the series for (namespace, metric), or nil.
// Caller holds s.mu.
func (s *Service) lookupLocked(namespace, metric string) *series {
	if h, ok := s.names.Lookup(key(namespace, metric)); ok {
		return s.series[h]
	}
	return nil
}

// window returns a copy of the samples within [from, to]. It exists
// for tests and debugging; the statistics below aggregate in place
// without copying.
func (s *Service) window(namespace, metric string, from, to time.Time) []Datum {
	s.mu.Lock()
	defer s.mu.Unlock()
	sx := s.lookupLocked(namespace, metric)
	if sx == nil {
		return nil
	}
	lo, hi := sortutil.Window(sx.n, sx.at, from, to)
	if lo == hi {
		return nil
	}
	out := make([]Datum, hi-lo)
	for i := range out {
		out[i] = Datum{At: time.Unix(0, sx.at(lo+i)).UTC(), Value: sx.val(lo + i)}
	}
	return out
}

// statRange aggregates sum/min/max over samples [lo, hi), in
// timestamp order. ok is false for an empty range.
func (sx *series) statRange(lo, hi int) (sum, min, max float64, ok bool) {
	if lo >= hi {
		return 0, 0, 0, false
	}
	min, max = sx.val(lo), sx.val(lo)
	for i := lo; i < hi; i++ {
		v := sx.val(i)
		sum += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return sum, min, max, true
}

// stat runs fn over the windowed range of a series under the service
// lock.
func (s *Service) stat(namespace, metric string, from, to time.Time, fn func(sx *series, lo, hi int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sx := s.lookupLocked(namespace, metric)
	if sx == nil {
		return
	}
	lo, hi := sortutil.Window(sx.n, sx.at, from, to)
	fn(sx, lo, hi)
}

// Count reports how many samples landed in the window.
func (s *Service) Count(namespace, metric string, from, to time.Time) int {
	var n int
	s.stat(namespace, metric, from, to, func(_ *series, lo, hi int) { n = hi - lo })
	return n
}

// Sum reports the window's total.
func (s *Service) Sum(namespace, metric string, from, to time.Time) float64 {
	var sum float64
	s.stat(namespace, metric, from, to, func(sx *series, lo, hi int) {
		sum, _, _, _ = sx.statRange(lo, hi)
	})
	return sum
}

// Max reports the window's maximum (0 for an empty window).
func (s *Service) Max(namespace, metric string, from, to time.Time) float64 {
	var max float64
	s.stat(namespace, metric, from, to, func(sx *series, lo, hi int) {
		_, _, mx, ok := sx.statRange(lo, hi)
		if ok {
			max = mx
		}
	})
	return max
}

// Min reports the window's minimum (0 for an empty window).
func (s *Service) Min(namespace, metric string, from, to time.Time) float64 {
	var min float64
	s.stat(namespace, metric, from, to, func(sx *series, lo, hi int) {
		_, mn, _, ok := sx.statRange(lo, hi)
		if ok {
			min = mn
		}
	})
	return min
}

// Avg reports the window's arithmetic mean (0 for an empty window).
func (s *Service) Avg(namespace, metric string, from, to time.Time) float64 {
	var avg float64
	s.stat(namespace, metric, from, to, func(sx *series, lo, hi int) {
		sum, _, _, ok := sx.statRange(lo, hi)
		if ok {
			avg = sum / float64(hi-lo)
		}
	})
	return avg
}

// NearestRank returns the zero-based index of the p-th percentile in
// an ascending n-sample set, under the nearest-rank definition: the
// smallest value with at least p% of the samples at or below it, i.e.
// rank ceil(p/100·n). p is in percent and may be fractional (99.9).
// This is the single percentile-index implementation in the module —
// Percentile below and the fleet engine's cost/latency summaries both
// read through it, so the two percentile surfaces can never disagree
// by an off-by-one again.
//
// The small epsilon absorbs binary-representation excess in the
// product: 99.9/100·1000 evaluates to 999.0000000000001, whose bare
// ceiling (1000) would skip past the correct rank 999. Integer p is
// unaffected — any true fractional part is at least ~1/100, ten
// million times the epsilon.
func NearestRank(n int, p float64) int {
	if n <= 0 {
		return 0
	}
	rank := int(math.Ceil(float64(n)*p/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank - 1
}

// Percentile reports the p-th percentile (nearest rank) of the window,
// 0 for an empty window. p is in percent and may be fractional: p99.9
// asks for the smallest value covering 99.9% of the samples.
func (s *Service) Percentile(namespace, metric string, from, to time.Time, p float64) float64 {
	var vals []float64
	s.stat(namespace, metric, from, to, func(sx *series, lo, hi int) {
		if lo == hi {
			return
		}
		vals = make([]float64, 0, hi-lo)
		for i := lo; i < hi; {
			c := sx.chunks[i>>chunkShift]
			off := i & chunkMask
			end := chunkLen
			if hi-i < end-off {
				end = off + (hi - i)
			}
			vals = append(vals, c.vals[off:end]...)
			i += end - off
		}
	})
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[NearestRank(len(vals), p)]
}

// SeriesStat summarizes one stored series: its identity plus
// whole-series aggregates. Last is the most recent sample's value —
// for cumulative gauges (account.cost.nanodollars) it is the final
// reading.
type SeriesStat struct {
	Namespace string
	Metric    string
	Count     int
	Sum       float64
	Min       float64
	Max       float64
	Last      float64
}

// SeriesStats returns one summary per series holding at least one
// sample, in series-creation order. Within a single-threaded
// simulation (one account's cloud) creation order is deterministic, so
// the fleet control tower can fold a finished account's store into its
// rollups without sorting or per-series window queries.
func (s *Service) SeriesStats() []SeriesStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SeriesStat, 0, len(s.series))
	for _, sx := range s.series {
		if sx.n == 0 {
			continue
		}
		sum, min, max, _ := sx.statRange(0, sx.n)
		out = append(out, SeriesStat{
			Namespace: sx.namespace,
			Metric:    sx.metric,
			Count:     sx.n,
			Sum:       sum,
			Min:       min,
			Max:       max,
			Last:      sx.val(sx.n - 1),
		})
	}
	return out
}

// Namespaces lists every namespace with at least one recorded series,
// sorted.
func (s *Service) Namespaces() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool)
	for _, sx := range s.series {
		if sx.n > 0 {
			seen[sx.namespace] = true
		}
	}
	return sortutil.SortedKeys(seen)
}

// SeriesCount reports how many distinct (namespace, metric) series
// hold at least one sample — the "custom metric" count CloudWatch
// bills by. Interned handles with no samples yet cost nothing.
func (s *Service) SeriesCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, sx := range s.series {
		if sx.n > 0 {
			n++
		}
	}
	return n
}

// hostClock, when set, is a real-time nanosecond source for the
// fleet's host-phase timers. Nothing in the simulation reads it.
var hostClock atomic.Pointer[func() int64]

// SetHostClock injects a host (wall) nanosecond clock for HostNow, or
// uninstalls it when fn is nil. The simulator core never sets one;
// `diyctl fleet` and the benchmark's tower workloads inject
// time.Now-based nanos so the fleet's phase timers see real durations.
func SetHostClock(fn func() int64) { hostClock.Store(&fn) }

// HostNow reads the injected host clock: nanoseconds from the
// SetHostClock source, or 0 when none is set. Its one reader is the
// fleet, which times its host-side phases (profile generation, shard
// drain, aggregation, per-account install vs replay) through it for
// the control tower's PhaseTimings, reported on stderr only. Simulated
// and test runs, which never inject a host clock, measure zero
// everywhere and stay bit-identical, and no simulated store ever
// records the value.
func HostNow() int64 {
	if fn := hostClock.Load(); fn != nil && *fn != nil {
		return (*fn)()
	}
	return 0
}
