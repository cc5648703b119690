package lambda

import (
	"crypto/sha256"
	"time"
)

// Concurrent reports the number of in-flight invocations.
func (p *Platform) Concurrent() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.concurrent
}

// WarmContainers reports how many warm containers a function holds.
func (p *Platform) WarmContainers(fnName string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.fns[fnName]; ok {
		return len(st.containers)
	}
	return 0
}

// Measurement returns the SHA-256 of the deployment package, the value
// a hardware enclave would attest (§3.3 "Securing DIY with Enclaves").
func (f *Function) Measurement() [32]byte { return sha256.Sum256(f.Code) }

// State reports the connection's state as of the given instant,
// accounting for lazy suspension.
func (c *Connection) State(at time.Time) ConnState {
	if c.state == ConnClosed {
		return ConnClosed
	}
	if c.state == ConnActive && at.Sub(c.lastActivity) > c.suspendAfter {
		return ConnSuspended
	}
	return c.state
}

// ArenaLen reports the size of the invocation's container arena.
func (e *Env) ArenaLen() int { return len(e.cont.arena) }

// ArenaBase reports the address of the container arena's first byte,
// or nil when the container has no arena: two invocations that report
// the same base used the same buffer.
func (e *Env) ArenaBase() *byte {
	if len(e.cont.arena) == 0 {
		return nil
	}
	return &e.cont.arena[0]
}
