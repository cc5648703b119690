// Package sim holds the primitives shared by every simulated cloud
// service: the per-request virtual timeline (Cursor), the call
// context that identifies the caller and its network characteristics,
// and the hook threading distributed traces through every service
// hop.
package sim

import (
	"fmt"
	"time"

	"repro/internal/cloudsim/trace"
)

// Cursor tracks simulated time along one request flow. Each service hop
// advances the cursor by its sampled latency; the total elapsed time is
// the end-to-end latency of the flow.
//
// A Cursor is intentionally not safe for concurrent use: it models a
// single causal chain of events. Start a new one per concurrent flow.
type Cursor struct {
	start time.Time
	now   time.Time
}

// NewCursor returns a cursor positioned at start.
func NewCursor(start time.Time) *Cursor {
	c := CursorAt(start)
	return &c
}

// CursorAt returns a cursor positioned at start, by value, for
// embedding in an object that lives as long as the flow does.
func CursorAt(start time.Time) Cursor {
	return Cursor{start: start, now: start}
}

// Now reports the cursor's current position on the simulated timeline.
func (c *Cursor) Now() time.Time { return c.now }

// Elapsed reports how much simulated time the flow has consumed.
func (c *Cursor) Elapsed() time.Duration { return c.now.Sub(c.start) }

// Advance moves the cursor forward by d. Negative d is ignored.
func (c *Cursor) Advance(d time.Duration) {
	if d > 0 {
		c.now = c.now.Add(d)
	}
}

// AdvanceTo moves the cursor to t if t is later than the current
// position, and reports how far it moved.
func (c *Cursor) AdvanceTo(t time.Time) time.Duration {
	if !t.After(c.now) {
		return 0
	}
	d := t.Sub(c.now)
	c.now = t
	return d
}

// Context identifies one simulated API call: who is calling, from which
// region, along which timeline, and with how much network bandwidth.
type Context struct {
	// Principal is the IAM principal ARN of the caller (empty for
	// anonymous external clients).
	Principal string

	// App attributes metered usage to a deployed application, feeding
	// the app store's per-app resource report. Empty for unattributed
	// administrative calls.
	App string

	// Region is the cloud region the call is directed at.
	Region string

	// Cursor is the simulated timeline of this request flow. It may be
	// nil, in which case services account latency nowhere (useful for
	// administrative setup calls that are not part of an experiment).
	Cursor *Cursor

	// IOBandwidthMBps is the caller's available network bandwidth in
	// MB/s, used to model payload transfer time. Zero means "ample":
	// the service applies only its base latency.
	IOBandwidthMBps float64

	// FunctionMemMB is set when the caller is a serverless function
	// container: the function's memory allocation, which couples to its
	// I/O latency and bandwidth (the paper's 128 MB vs 448 MB finding).
	// Zero means the caller is not a function.
	FunctionMemMB int

	// External marks calls that originate outside the cloud (an end
	// client). Data returned to an external caller is billed as
	// internet transfer out.
	External bool

	// Span is the trace span this call is currently nested under, or
	// nil when the flow is not being traced. Services open children
	// under it at every hop; see StartTrace.
	Span *trace.Span
}

// NewFlow returns a copy of c on a fresh cursor positioned at start.
// The Context and its Cursor share one allocation.
func NewFlow(c Context, start time.Time) *Context {
	f := &struct {
		ctx Context
		cur Cursor
	}{ctx: c, cur: CursorAt(start)}
	f.ctx.Cursor = &f.cur
	return &f.ctx
}

// Traced reports whether the flow records spans: StartSpan opens one
// exactly when it does. Callers build span annotations only then, so
// an untraced flow formats nothing.
func (c *Context) Traced() bool {
	return c != nil && c.Span != nil && c.Cursor != nil
}

// Advance moves the context's cursor, if any, forward by d.
func (c *Context) Advance(d time.Duration) {
	if c != nil && c.Cursor != nil {
		c.Cursor.Advance(d)
	}
}

// Now reports the context's current simulated time, or the zero time if
// the context carries no cursor.
func (c *Context) Now() time.Time {
	if c == nil || c.Cursor == nil {
		return time.Time{}
	}
	return c.Cursor.Now()
}

// WithPrincipal returns a copy of the context acting as principal p.
func (c Context) WithPrincipal(p string) *Context {
	c.Principal = p
	return &c
}

// StartTrace attaches a fresh trace bound for st to the context,
// rooted at the cursor's current instant, and returns it. The caller
// finishes the trace (tr.Finish(ctx.Now())) when the flow completes,
// which folds it into st. Returns nil — and leaves the context
// untraced — when st is nil or the context has no cursor: without a
// store nothing could read the trace, and without a simulated timeline
// spans have no meaningful extent.
func (c *Context) StartTrace(st *trace.Store, name string) *trace.Trace {
	if c == nil || c.Cursor == nil {
		return nil
	}
	tr := trace.New(st, name, c.Cursor.Now())
	c.Span = tr.Root()
	return tr
}

// StartSpan opens a child span for one service hop under the
// context's current span, starting at the cursor's current instant.
// Returns nil when the flow is untraced; all trace.Span methods
// tolerate nil receivers, so call sites need no guards.
func (c *Context) StartSpan(service, op string) *trace.Span {
	if !c.Traced() {
		return nil
	}
	return c.Span.StartChild(service, op, c.Cursor.Now())
}

// FinishSpan closes a span at the cursor's current instant. Safe on
// nil spans and untraced contexts.
func (c *Context) FinishSpan(s *trace.Span) {
	if s == nil || c == nil || c.Cursor == nil {
		return
	}
	s.Finish(c.Cursor.Now())
}

// PushSpan opens a child span and makes it the context's current
// span, so downstream hops made with the same context nest under it.
// The returned func restores the previous span and closes this one at
// the then-current cursor instant; defer it. On untraced flows both
// the span and the func are usable no-ops.
func (c *Context) PushSpan(service, op string) (*trace.Span, func()) {
	sp := c.StartSpan(service, op)
	if sp == nil {
		return nil, func() {}
	}
	prev := c.Span
	c.Span = sp
	return sp, func() {
		c.Span = prev
		sp.Finish(c.Cursor.Now())
	}
}

// String describes the context for logs and errors.
func (c *Context) String() string {
	if c == nil {
		return "sim.Context(nil)"
	}
	return fmt.Sprintf("sim.Context{principal=%q region=%q}", c.Principal, c.Region)
}
