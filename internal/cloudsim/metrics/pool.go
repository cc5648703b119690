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
// better than the obvious alternative. On a 2-vCPU linux/amd64 host, a
// plain []sample slice per series in their place cut fleet_default's
// live_heap_mb from 3.06 to 1.93 but lost 5 of 5 alternated
// fleet_default pairs: median 49.0k → 44.2k req/s (−9.7%).

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
