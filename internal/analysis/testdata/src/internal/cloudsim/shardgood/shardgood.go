// Package shardgood does the same seam-side mutation as shardbad but
// guarded: the interceptor takes the struct's mutex before writing,
// delegates through a *Locked helper whose caller holds the lock, and
// body-local state needs no guard at all. shardsafe must stay silent
// on every function here.
package shardgood

import (
	"sync"

	"repro/internal/cloudsim/plane"
)

// collector guards its counter and op log with its own mutex.
type collector struct {
	mu    sync.Mutex
	calls int
	ops   []string
}

// PlaneInterceptor locks before the write — guarded, so silent.
func PlaneInterceptor(c *collector) plane.Interceptor {
	return func(next plane.HandlerFunc) plane.HandlerFunc {
		return func(req *plane.Request) error {
			c.mu.Lock()
			c.calls++ // silent: the body holds the mutex
			c.appendLocked(req.Call.Op)
			c.mu.Unlock()
			tally(req.Call.Op)
			return next(req)
		}
	}
}

// appendLocked mutates with the lock held by its caller — the naming
// convention shardsafe honors.
func (c *collector) appendLocked(op string) {
	c.ops = append(c.ops, op) // silent: *Locked means the caller holds c.mu
}

// tally builds a body-local aggregate; locals are shard-private by
// construction, so writing their fields needs no guard.
func tally(op string) int {
	type agg struct{ n int }
	var a agg
	for range op {
		a.n++ // silent: a is local to this body
	}
	return a.n
}
