package metrics

import (
	"sync"

	"repro/internal/cloudsim/sortutil"
)

// Fleet-scale allocation recycling. A fleet run builds and discards
// one Service per account — tens of thousands of 16 KiB column chunks,
// each zeroed by the allocator and scanned into cache just to hold a
// few dozen samples. The pool below recycles them across accounts.
// Reuse is safe without clearing: every read of chunk columns is
// bounded by the owning series' sample count (sx.n), which starts at
// zero for a fresh series — stale bytes beyond the high-water mark are
// never observed, so replay identity is untouched (the telemetry-on
// ledger parity test runs entirely on pooled storage).
//
// The pool and the fixed chunk layout are kept because they measure
// better than the obvious alternative. On a 2-core linux/amd64 host,
// append-grown slices in their place cut fleet_default live heap from
// 3.33 to 2.17 MB but lost 6 of 8 alternating
// BenchmarkFleetTelemetry/accounts=1000 ns/request pairs (roughly
// +5–15%), and cost +6% allocs/op as two slices or +6.6% B/op as one
// slice of points at capacity 64.

// chunkPool recycles column chunks across Services. A checkout is
// owned by exactly one series on one account's store; no sim state
// survives the round trip.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// newChunk draws a (possibly dirty — see above) chunk from the pool.
func newChunk() *chunk { return chunkPool.Get().(*chunk) }

// Recycle returns every series' chunks to the process-wide pool and
// leaves the service empty. Callers that are done with a short-lived
// store (the fleet engine, once an account's series are reduced) call
// it instead of leaving the chunks to the garbage collector; the
// service must not be used afterwards except to be dropped.
func (s *Service) Recycle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sx := range s.series {
		for _, c := range sx.chunks {
			chunkPool.Put(c)
		}
		sx.chunks = nil
		sx.n = 0
	}
	s.series = nil
	s.names = sortutil.Names{}
	s.alarms = nil
}
