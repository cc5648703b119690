// Package shardbad mutates a shared struct field from a concurrency
// seam without a guard: a plane interceptor bumps a counter per
// published call, and every shard's calls run through the same
// interceptor instance. shardsafe must flag the write.
package shardbad

import (
	"repro/internal/cloudsim/plane"
)

// collector is shared by every call routed through the interceptor —
// concurrently, from every shard — exactly the aliasing a mutex exists
// for. Nothing here takes a lock, so the write below races itself.
type collector struct {
	calls int
}

// PlaneInterceptor counts calls on the shared collector with no lock.
// Its guarded twin in shardgood takes the collector's mutex first, or
// delegates to a *Locked helper whose caller holds it; this one does
// neither.
func PlaneInterceptor(c *collector) plane.Interceptor {
	return func(next plane.HandlerFunc) plane.HandlerFunc {
		return func(req *plane.Request) error {
			c.calls++ // flagged: unguarded write from an interceptor
			return next(req)
		}
	}
}
