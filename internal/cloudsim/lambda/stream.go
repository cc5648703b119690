package lambda

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/sim"
	"repro/internal/pricing"
)

// This file implements the platform extension the paper asks for in
// §8.3: "It would be interesting to expand cloud platforms so they can
// efficiently [host] arbitrary TCP servers with the same availability
// guarantees as current serverless platforms. ... a second limitation
// we found is that platforms do not easily support long idle
// connections (the function is billed while the HTTP request is
// active). Being able to suspend the user's container while a TCP
// connection remains open [Picocenter, 41] could further improve these
// platforms' programmability and performance."
//
// A Connection binds a function container to a long-lived logical TCP
// connection. While the connection is idle past the suspend threshold
// the container is swapped out: the connection stays open but billing
// stops. Traffic swaps it back in at a resume latency far below a cold
// start. The streaming ablation in internal/experiments quantifies the
// win over both per-request invocation and a naive always-active
// connection.

// DefaultSuspendAfter is how long a connection may idle before its
// container is suspended.
const DefaultSuspendAfter = 2 * time.Second

// resumeFraction scales the cold-start latency down to a swap-in
// (Picocenter restores paged state rather than building a container).
const resumeFraction = 0.25

// Errors returned by connections.
var (
	ErrConnClosed = errors.New("lambda: connection closed")
)

// ConnState is a connection's lifecycle state.
type ConnState int

// Connection states.
const (
	ConnActive ConnState = iota
	ConnSuspended
	ConnClosed
)

// ConnStats reports a connection's accounting at close.
type ConnStats struct {
	// Wall is the total open duration on the simulated timeline.
	Wall time.Duration
	// BilledActive is the container-attached time actually billed.
	BilledActive time.Duration
	// GBSeconds is the billed compute.
	GBSeconds float64
	// Suspends and Resumes count swap-outs and swap-ins.
	Suspends int
	Resumes  int
	// Messages is the number of events processed.
	Messages int
}

// Connection is a long-lived logical TCP connection served by a
// function container with suspend/resume. Not safe for concurrent use:
// it models one ordered byte stream.
type Connection struct {
	platform *Platform
	fn       Function
	cont     *container

	state        ConnState
	suspendAfter time.Duration
	openedAt     time.Time
	activeSince  time.Time
	lastActivity time.Time
	billed       time.Duration
	suspends     int
	resumes      int
	messages     int
}

// OpenConnection establishes a connection to a function at the
// caller's current simulated instant. The container cold-starts and
// stays attached until the connection idles past suspendAfter
// (DefaultSuspendAfter if zero).
func (p *Platform) OpenConnection(ctx *sim.Context, fnName string, suspendAfter time.Duration) (*Connection, error) {
	p.mu.Lock()
	st, ok := p.fns[fnName]
	if !ok {
		p.mu.Unlock()
		return nil, fmt.Errorf("lambda: %q: %w", fnName, ErrNoSuchFunction)
	}
	fn := st.fn
	p.mu.Unlock()

	if suspendAfter <= 0 {
		suspendAfter = DefaultSuspendAfter
	}
	sp := ctx.StartSpan("lambda", "OpenConnection")
	defer ctx.FinishSpan(sp)
	sp.Annotate("function", fnName)
	if ctx != nil {
		ctx.Advance(p.sample(netsim.HopGatewayDispatch))
		ctx.Advance(p.sample(netsim.HopColdStart))
	}
	now := p.instant(ctx)
	cont, _ := p.acquireContainer(st, fn.Regions[0], now)
	return &Connection{
		platform:     p,
		fn:           fn,
		cont:         cont,
		state:        ConnActive,
		suspendAfter: suspendAfter,
		openedAt:     now,
		activeSince:  now,
		lastActivity: now,
	}, nil
}

// Send delivers one event over the connection at the context's current
// instant, resuming the container if it was suspended. The handler
// runs exactly as in a regular invocation (same Env, same service
// latencies); the caller's cursor absorbs resume latency plus run time.
func (c *Connection) Send(ctx *sim.Context, event Event) (Response, error) {
	if c.state == ConnClosed {
		return Response{}, ErrConnClosed
	}
	sp := ctx.StartSpan("lambda", "ConnectionSend")
	defer ctx.FinishSpan(sp)
	sp.Annotate("function", c.fn.Name)
	now := c.platform.instant(ctx)
	c.settleTo(now)

	if c.state == ConnSuspended {
		// Swap the container back in.
		resume := time.Duration(float64(c.platform.sample(netsim.HopColdStart)) * resumeFraction)
		if ctx != nil {
			ctx.Advance(resume)
		}
		c.resumes++
		c.state = ConnActive
		c.activeSince = c.platform.instant(ctx)
		sp.Annotate("resumed", "true")
	}

	// Nest the handler's downstream hops under this send's span, so
	// traced streaming flows attribute cost per hop exactly like
	// regular invocations.
	env := new(Env)
	env.start(c.platform, &c.fn, c.cont, c.cont.region, c.platform.instant(ctx), sp)
	invCursor := &env.cur
	resp, err := c.fn.Handler(env, event)
	env.finish()
	if ctx != nil {
		ctx.Advance(invCursor.Elapsed())
	}
	c.messages++
	c.lastActivity = invCursor.Now()
	if c.lastActivity.Before(c.platform.instant(ctx)) {
		c.lastActivity = c.platform.instant(ctx)
	}
	return resp, err
}

// settleTo applies lazy suspension up to the instant now: if the
// connection idled past the threshold, billing stopped at
// lastActivity+suspendAfter.
func (c *Connection) settleTo(now time.Time) {
	if c.state != ConnActive || !now.After(c.lastActivity) {
		return
	}
	idleLimit := c.lastActivity.Add(c.suspendAfter)
	if now.After(idleLimit) {
		c.billed += idleLimit.Sub(c.activeSince)
		c.state = ConnSuspended
		c.suspends++
	}
}

// Close ends the connection at the given instant, accrues the final
// active interval, meters the usage, and scrubs the container.
func (c *Connection) Close(at time.Time) (ConnStats, error) {
	if c.state == ConnClosed {
		return ConnStats{}, ErrConnClosed
	}
	c.settleTo(at)
	if c.state == ConnActive {
		end := at
		if end.Before(c.lastActivity) {
			end = c.lastActivity
		}
		c.billed += end.Sub(c.activeSince)
	}
	c.state = ConnClosed

	billedQ := billQuantum(c.billed)
	stats := ConnStats{
		Wall:         at.Sub(c.openedAt),
		BilledActive: billedQ,
		GBSeconds:    billedQ.Seconds() * float64(c.fn.MemoryMB) / 1024.0,
		Suspends:     c.suspends,
		Resumes:      c.resumes,
		Messages:     c.messages,
	}
	// One platform request per connection establishment plus one per
	// swap-in, and the billed GB-seconds.
	c.platform.meter.Add(pricing.Usage{Kind: pricing.LambdaRequests, Quantity: float64(1 + c.resumes), App: c.fn.App})
	c.platform.meter.Add(pricing.Usage{Kind: pricing.LambdaGBSeconds, Quantity: stats.GBSeconds, App: c.fn.App})

	c.platform.mu.Lock()
	c.cont.busy = false
	c.cont.scrub()
	c.platform.mu.Unlock()
	return stats, nil
}
