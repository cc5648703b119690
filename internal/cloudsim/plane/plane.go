// Package plane implements the shared request plane every simulated
// cloud service routes its public API calls through. The paper's cost
// and privacy arguments rest on every service hop being traced,
// authenticated, latency-modeled, and metered; before this package each
// service re-implemented that path in its own private `begin` helper
// with drifting conventions. The plane fixes one pipeline, in one
// documented order, for all of them:
//
//	trace span open ──► IAM authorization ──► latency sampling ──► meter ──► handler ──► span close
//	                    (child "iam" span)     (memory-coupled       (mirrored into
//	                                            + payload transfer)   the span ledger)
//
// Ordering contract:
//
//  1. Trace: a span for the hop opens at the caller's cursor instant
//     and closes when the call returns, annotated with the error when
//     the call fails. Calls with Nest set push the span so downstream
//     hops made with the same context nest under it.
//  2. Authorization: the IAM decision is recorded as a zero-duration
//     "iam" child span on traced flows, so `diyctl trace` shows where
//     denials happen. Denial does NOT short-circuit the next two
//     stages — AWS delays and bills denied API calls, so the simulator
//     must too.
//  3. Latency: one sample of the call's hop distribution, scaled by
//     the caller's memory allocation when the hop is memory-coupled
//     (the paper's 128 MB vs 448 MB finding) plus payload transfer
//     time at the caller's bandwidth, advances the flow's cursor.
//  4. Metering: the call's request-fee usage is added to the global
//     meter and mirrored into the span's ledger so per-request cost
//     attribution matches the bill record for record.
//  5. Handler: the service's state-mutating closure runs only if
//     authorization passed. Registered interceptors wrap this stage —
//     the seam where fault injection, concurrency limits, and per-op
//     metrics land without touching eight services.
//
// A call allocates nothing of its own on an untraced flow:
//
//   - A Call is a value the caller builds on its own stack and passes
//     by pointer. The plane keeps no reference to it, and it holds no
//     per-call pointer: latency and request fee are values, the IAM
//     resource is joined from its parts in a stack buffer, and the
//     annotations sit in a fixed array.
//   - A *Request is valid only until Do returns: the plane reuses it for
//     its next call, so interceptors and handlers must not keep it.
//   - Annotations exist only on traced flows; callers format an
//     annotation value only when ctx.Traced().
package plane

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/sim"
	"repro/internal/cloudsim/trace"
	"repro/internal/pricing"
)

// Latency describes how a call consumes simulated time.
type Latency struct {
	// On enables the latency stage. The zero Latency costs nothing: an
	// op whose latency is conditional applies it inside the handler
	// (gateway's throttle runs before any latency is paid; ec2 checks
	// instance state first; SQS delivery latency depends on message
	// availability).
	On bool
	// Hop selects the base latency distribution to sample.
	Hop netsim.Hop
	// Scale multiplies the sampled base (0 means 1.0). DynamoDB uses
	// 0.25: a table op is a quarter of an S3 call.
	Scale float64
	// MemoryCoupled scales the base by the caller's function memory
	// allocation relative to netsim.RefMemoryMB, and defaults the transfer
	// bandwidth from the allocation when the caller has none set.
	MemoryCoupled bool
	// TransferBytes adds payload transfer time at the caller's
	// bandwidth on top of the base latency.
	TransferBytes int64
}

// Call describes one service API call to the request plane. It is a
// value the caller builds on its own stack and passes by pointer; the
// plane reads it during Do and keeps no reference to it, so nothing it
// holds needs to live on the heap.
type Call struct {
	// Service and Op name the trace span ("s3", "s3:PutObject").
	Service string
	Op      string
	// Action is the IAM action to authorize, or "" for calls that are
	// not IAM-authenticated (gateway ingress, VM requests, email).
	Action string
	// Resource is the IAM resource the action targets, in parts that
	// IAM joins in a stack buffer.
	Resource iam.Resource
	// Nest pushes the span onto the context so downstream hops made
	// during the handler nest under it (gateway, ses). Without it the
	// span is a leaf and downstream spans stay siblings (ec2, lambda
	// wire their children explicitly).
	Nest bool
	// Annotations are attached to the span at open, in order; entries
	// with an empty Key are skipped. They exist only on traced flows:
	// the plane drops them on an untraced one, so a caller formats a
	// value (a byte count) only when ctx.Traced().
	Annotations [2]trace.Annotation
	// Latency is the call's time cost.
	Latency Latency
	// Fee is the call's request fee, metered when its Kind is set, on
	// success and error alike, before Usage. The caller's app
	// attribution is stamped on here.
	Fee pricing.Usage
	// Usage is metering beyond the one fee (SES bills each recipient),
	// stamped and metered the same way.
	Usage []pricing.Usage
}

// Request is the in-flight view of a Call handed to the handler and to
// interceptors. It is valid only until Do returns: the plane reuses it
// for its next call, so an interceptor or handler must not keep it.
type Request struct {
	Ctx *sim.Context
	// Call points at the request's own copy of the call's Service, Op,
	// Action and Nest; the other fields are left zero.
	Call *Call
	// Span is the call's open span (nil on untraced flows; all its
	// methods are nil-safe).
	Span    *trace.Span
	plane   *Plane
	start   time.Time
	authErr error
	handler Handler
	metered []pricing.Usage
	// meteredBuf backs metered for the common case (a call fee plus at
	// most one handler-metered record).
	meteredBuf [2]pricing.Usage
	call       Call
}

// Start reports the flow-cursor instant at which the call entered the
// plane (zero on cursor-less flows). Interceptors subtract it from the
// cursor's position after the handler to observe the call's full
// simulated latency.
func (r *Request) Start() time.Time { return r.start }

// Metered returns every usage record metered through this request so
// far — the request fee plus anything the handler added — so
// interceptors can price or aggregate per-call usage. The slice is the
// request's own; do not mutate it.
func (r *Request) Metered() []pricing.Usage { return r.metered }

// MeterUsage meters additional usage discovered during the handler
// (e.g. transfer-out for an external read), stamped with the caller's
// app attribution and mirrored into the span's ledger like the
// request fee.
func (r *Request) MeterUsage(u pricing.Usage) {
	if r.Ctx != nil {
		u.App = r.Ctx.App
	} else {
		u.App = ""
	}
	r.MeterUsageAs(u)
}

// MeterUsageAs is MeterUsage without the app restamping: the usage is
// attributed exactly as the caller built it. Lambda uses it to bill
// invocations to the function's own app rather than the invoking
// caller's.
func (r *Request) MeterUsageAs(u pricing.Usage) {
	if r.plane.meter != nil {
		r.plane.meter.Add(u)
	}
	r.Span.AddUsage(u)
	r.metered = append(r.metered, u)
}

// HandlerFunc is the service-specific stage of a call.
type HandlerFunc func(*Request) error

// Handle calls f, so a HandlerFunc is a Handler.
func (f HandlerFunc) Handle(r *Request) error { return f(r) }

// Handler is the service-specific stage as an interface. A service op
// that keeps its inputs and results in one struct passes a pointer to
// it to DoHandler: the call then allocates that struct and nothing
// else, where a closure would allocate itself plus every result
// variable it assigns.
type Handler interface {
	Handle(*Request) error
}

// Interceptor wraps the handler stage of every call routed through a
// plane. Interceptors run after authorization, latency, and metering,
// in registration order (the first registered is outermost). They see
// denied calls — the wrapped stage returns the authorization error
// with the service handler skipped — so cross-cutting observers can
// count denials.
//
// The wrapping happens once, at Use time: the factory is called with
// the downstream stage and the HandlerFunc it returns is reused for
// every subsequent call, possibly concurrently. Per-call state belongs
// on the *Request, not in variables captured at wrap time, and the
// *Request must not outlive the call.
type Interceptor func(next HandlerFunc) HandlerFunc

// Plane is one service's request pipeline. A nil model disables the
// latency stage; a nil meter disables metering; a nil iam with an
// authenticated Call fails closed.
type Plane struct {
	iam   *iam.Service
	meter *pricing.Meter
	model *netsim.Model
	extra []Interceptor
	// chain is the handler stage with every registered interceptor
	// pre-composed around it, rebuilt on Use. Composing at registration
	// rather than per call keeps plane.Do free of closure allocations.
	chain HandlerFunc
	// spare is a finished Request kept for the next call. Do takes it
	// with a swap and puts it back on the way out; a nested or
	// concurrent call finds the slot empty and allocates its own. One
	// slot, not a sync.Pool: a pool keeps its Requests, and through
	// them the plane's whole cloud, reachable across GC cycles.
	spare atomic.Pointer[Request]
}

// New returns a request plane over the given IAM, meter, and network
// model (any of which may be nil for services that do not use them).
func New(iamSvc *iam.Service, meter *pricing.Meter, model *netsim.Model) *Plane {
	return &Plane{iam: iamSvc, meter: meter, model: model, chain: dispatch}
}

// dispatch is the innermost stage: surface the authorization verdict,
// then run the service handler. It reads per-call state off the
// Request so the composed chain can be built once and shared.
func dispatch(r *Request) error {
	if r.authErr != nil {
		return r.authErr
	}
	return r.handler.Handle(r)
}

// Use registers interceptors around the handler stage and re-composes
// the chain. Call it during wiring, before the plane serves requests;
// Do reads the composed chain without locking. Each interceptor
// factory runs once, here — see Interceptor.
func (p *Plane) Use(is ...Interceptor) {
	p.extra = append(p.extra, is...)
	p.chain = dispatch
	for i := len(p.extra) - 1; i >= 0; i-- {
		p.chain = p.extra[i](p.chain)
	}
}

// Do runs one call through the pipeline: span, authorization, latency,
// metering, then the handler (wrapped by any registered interceptors).
// It returns the authorization error — with the handler skipped — when
// the caller is denied, otherwise the handler's error.
func (p *Plane) Do(ctx *sim.Context, call *Call, h HandlerFunc) error {
	return p.DoHandler(ctx, call, h)
}

// DoHandler is Do with the service stage as a Handler.
func (p *Plane) DoHandler(ctx *sim.Context, call *Call, h Handler) error {
	// Stage 1: trace.
	var sp *trace.Span
	if call.Nest {
		pushed, done := ctx.PushSpan(call.Service, call.Op)
		sp = pushed
		defer done()
	} else {
		sp = ctx.StartSpan(call.Service, call.Op)
		defer ctx.FinishSpan(sp)
	}
	for _, a := range call.Annotations {
		if a.Key != "" {
			sp.Annotate(a.Key, a.Value)
		}
	}
	req := p.spare.Swap(nil)
	if req == nil {
		req = &Request{plane: p}
		req.Call = &req.call
	}
	req.Ctx, req.Span, req.start, req.handler = ctx, sp, ctx.Now(), h
	req.call.Service, req.call.Op, req.call.Action, req.call.Nest = call.Service, call.Op, call.Action, call.Nest
	req.metered = req.meteredBuf[:0]

	// Stage 2: authorization.
	var authErr error
	if call.Action != "" {
		principal := ""
		if ctx != nil {
			principal = ctx.Principal
		}
		if p.iam == nil {
			authErr = iam.ErrDenied
		} else {
			authErr = p.iam.Authorize(principal, call.Action, call.Resource)
		}
		if sp != nil {
			asp := sp.StartChild("iam", call.Action, ctx.Now())
			if authErr != nil {
				asp.Annotate("result", "deny")
			} else {
				asp.Annotate("result", "allow")
			}
			asp.Finish(ctx.Now())
		}
		if authErr != nil {
			sp.Annotate("error", "access-denied")
		}
	}

	// Stage 3: latency. Runs even when denied: the round trip happens
	// before the service refuses.
	p.advance(ctx, call.Latency)

	// Stage 4: metering. Denied calls are billed too.
	if call.Fee.Kind != "" {
		req.MeterUsage(call.Fee)
	}
	for _, u := range call.Usage {
		req.MeterUsage(u)
	}

	// Stage 5: handler, wrapped by the pre-composed interceptor chain.
	// The innermost stage (dispatch) returns the authorization error
	// without running the service handler, so interceptors observe
	// denied calls too — fleet-wide observability counts denials
	// without a side channel — while the handler itself still runs only
	// when authorization passed.
	req.authErr = authErr
	err := p.chain(req)
	if err != nil && sp != nil {
		if _, ok := sp.Annotation("error"); !ok {
			sp.Annotate("error", err.Error())
		}
	}
	req.Ctx, req.Span, req.handler, req.authErr = nil, nil, nil, nil
	p.spare.Store(req)
	return err
}

// advance applies the call's latency to the flow's timeline.
func (p *Plane) advance(ctx *sim.Context, l Latency) {
	if !l.On || p.model == nil {
		return
	}
	d := p.model.Sample(l.Hop)
	if l.Scale > 0 {
		d = time.Duration(float64(d) * l.Scale)
	}
	var bw float64
	var mem int
	if ctx != nil {
		bw, mem = ctx.IOBandwidthMBps, ctx.FunctionMemMB
	}
	if l.MemoryCoupled && mem > 0 {
		d = time.Duration(float64(d) * netsim.MemoryLatencyFactor(mem))
		if bw == 0 {
			bw = netsim.BandwidthMBps(mem)
		}
	}
	if l.TransferBytes > 0 {
		d += netsim.TransferTime(l.TransferBytes, bw)
	}
	ctx.Advance(d)
}

// Op is one registered public service operation. Services register
// their ops at init so the conformance suite can enumerate the whole
// API surface and fail when an op lacks coverage.
type Op struct {
	// Service is the span service name ("s3").
	Service string
	// Method is the exported Go method implementing the op ("Put").
	Method string
	// Action is the IAM action the op authorizes, "" when the op is
	// not IAM-authenticated.
	Action string
}

var (
	regMu    sync.Mutex
	registry []Op
)

// Register records service ops in the global registry. Called from
// service package init functions.
func Register(ops ...Op) {
	regMu.Lock()
	defer regMu.Unlock()
	registry = append(registry, ops...)
}
