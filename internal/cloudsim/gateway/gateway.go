// Package gateway simulates the HTTPS front end that triggers DIY
// functions: "Lambda only supports HTTP(S)-based endpoints", so every
// client interaction — including the chat prototype's XMPP stanzas —
// tunnels through endpoints registered here.
//
// The gateway also hosts the request throttle the paper proposes
// against DDoS cost attacks (§8.2: "These attacks may be mitigated by
// throttling requests using tools provided by the cloud provider"), a
// token bucket per endpoint.
package gateway

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/plane"
	"repro/internal/cloudsim/sim"
	"repro/internal/pricing"
)

func init() {
	// Gateway ingress authenticates at the application layer (TLS +
	// app-level auth inside the function), not via IAM.
	plane.Register(plane.Op{Service: "gateway", Method: "Handle", Action: ""})
}

// Errors returned by the gateway.
var (
	ErrNoSuchEndpoint = errors.New("gateway: no such endpoint")
	ErrThrottled      = errors.New("gateway: request throttled")
)

// Limit configures an endpoint's token-bucket throttle. The zero value
// means unlimited.
type Limit struct {
	// RPS is the sustained refill rate in requests per second.
	RPS float64
	// Burst is the bucket capacity.
	Burst float64
}

// Request is one client call to an endpoint.
type Request struct {
	Path  string
	Op    string
	Body  []byte
	Attrs map[string]string
}

type endpoint struct {
	fnName string
	limit  Limit

	tokens   float64
	lastFill time.Time

	requests  int64
	rejected  int64
	totalTime time.Duration
}

// Service is the simulated API gateway. It is safe for concurrent use.
type Service struct {
	platform *lambda.Platform
	pl       *plane.Plane
	model    *netsim.Model // per-leg samples inside the handler
	clk      *clock.Virtual

	mu        sync.Mutex
	endpoints map[string]*endpoint
	throttled int64
}

// New returns a gateway in front of the platform.
func New(platform *lambda.Platform, meter *pricing.Meter, model *netsim.Model, clk *clock.Virtual) *Service {
	return &Service{
		platform:  platform,
		pl:        plane.New(nil, meter, model),
		model:     model,
		clk:       clk,
		endpoints: make(map[string]*endpoint),
	}
}

// Plane exposes the gateway's request plane so wiring code can attach
// interceptors around every request.
func (s *Service) Plane() *plane.Plane { return s.pl }

// RegisterEndpoint routes HTTPS requests for path to a function, with
// an optional throttle.
func (s *Service) RegisterEndpoint(path, fnName string, limit Limit) error {
	if path == "" {
		return errors.New("gateway: endpoint path must be non-empty")
	}
	if _, ok := s.platform.Function(fnName); !ok {
		return fmt.Errorf("gateway: endpoint %q target %q: %w", path, fnName, lambda.ErrNoSuchFunction)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.endpoints[path] = &endpoint{fnName: fnName, limit: limit, tokens: limit.Burst}
	return nil
}

// RemoveEndpoint deletes an endpoint; removing an absent path is a
// no-op.
func (s *Service) RemoveEndpoint(path string) {
	s.mu.Lock()
	delete(s.endpoints, path)
	s.mu.Unlock()
}

// EndpointStats summarizes one endpoint's traffic.
type EndpointStats struct {
	Requests int64
	Rejected int64
	MeanRun  time.Duration
}

// Stats reports an endpoint's served/rejected counts and mean run time
// (the gateway-side observability pane of the §8.1 app store).
func (s *Service) Stats(path string) (EndpointStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep, ok := s.endpoints[path]
	if !ok {
		return EndpointStats{}, false
	}
	st := EndpointStats{Requests: ep.requests, Rejected: ep.rejected}
	if ep.requests > 0 {
		st.MeanRun = ep.totalTime / time.Duration(ep.requests)
	}
	return st, true
}

// Handle routes one client request through TLS termination, the
// throttle, and the function invocation, metering the response payload
// as internet transfer out for external callers.
func (s *Service) Handle(ctx *sim.Context, req Request) (lambda.Response, lambda.InvocationStats, error) {
	// The throttle runs before any latency is paid and the two wire
	// legs bracket the invocation, so the whole call body is the
	// handler stage: the plane contributes the span and the seam.
	c := plane.Call{Service: "gateway", Op: req.Path, Nest: true}
	op := &handleOp{s: s, ctx: ctx, req: req}
	err := s.pl.DoHandler(ctx, &c, op)
	return op.resp, op.stats, err
}

// handleOp is one Handle's handler stage, holding the response and
// stats it returns.
type handleOp struct {
	s     *Service
	ctx   *sim.Context
	req   Request
	resp  lambda.Response
	stats lambda.InvocationStats
}

func (op *handleOp) Handle(preq *plane.Request) error {
	s, ctx, req := op.s, op.ctx, &op.req
	sp := preq.Span
	now := s.instant(ctx)
	s.mu.Lock()
	ep, ok := s.endpoints[req.Path]
	if !ok {
		s.mu.Unlock()
		sp.Annotate("error", "no-such-endpoint")
		return fmt.Errorf("gateway: %q: %w", req.Path, ErrNoSuchEndpoint)
	}
	if !ep.take(now) {
		s.throttled++
		ep.rejected++
		s.mu.Unlock()
		sp.Annotate("error", "throttled")
		op.resp = lambda.Response{Status: http.StatusTooManyRequests}
		return fmt.Errorf("gateway: %q: %w", req.Path, ErrThrottled)
	}
	ep.requests++
	fnName := ep.fnName
	s.mu.Unlock()

	// Client -> gateway leg (TLS-protected on the real platform).
	if s.model != nil && ctx != nil {
		ctx.Advance(s.model.Sample(netsim.HopClientGateway))
	}

	var err error
	op.resp, op.stats, err = s.platform.Invoke(ctx, fnName, lambda.Event{
		Source: "https",
		Path:   req.Path,
		Op:     req.Op,
		Body:   req.Body,
		Attrs:  req.Attrs,
	})
	s.mu.Lock()
	if e, ok := s.endpoints[req.Path]; ok {
		e.totalTime += op.stats.RunTime
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}

	// Gateway -> client leg plus egress billing.
	if ctx != nil && ctx.External {
		if s.model != nil {
			ctx.Advance(s.model.Sample(netsim.HopClientGateway))
		}
		if n := len(op.resp.Body); n > 0 {
			preq.MeterUsage(pricing.Usage{
				Kind:     pricing.TransferOutGB,
				Quantity: float64(n) / 1e9,
			})
		}
	}
	return nil
}

// take consumes one token, refilling by elapsed time since the last
// fill. Caller holds the service lock.
func (ep *endpoint) take(now time.Time) bool {
	if ep.limit.RPS <= 0 && ep.limit.Burst <= 0 {
		return true // unlimited
	}
	if ep.lastFill.IsZero() {
		ep.lastFill = now
	}
	if now.After(ep.lastFill) {
		ep.tokens += now.Sub(ep.lastFill).Seconds() * ep.limit.RPS
		if ep.tokens > ep.limit.Burst {
			ep.tokens = ep.limit.Burst
		}
		ep.lastFill = now
	}
	if ep.tokens < 1 {
		return false
	}
	ep.tokens--
	return true
}

func (s *Service) instant(ctx *sim.Context) time.Time {
	if ctx != nil && ctx.Cursor != nil {
		return ctx.Cursor.Now()
	}
	return s.clk.Now()
}

// ServeHTTP adapts the gateway to net/http so the runnable examples can
// drive DIY apps over real sockets. The request path selects the
// endpoint; the "X-DIY-Op" header selects the operation; the body is
// the payload. Requests carry no cursor, so they run at the cloud
// clock's current instant.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		http.Error(w, "request too large", http.StatusRequestEntityTooLarge)
		return
	}
	attrs := make(map[string]string)
	for k := range r.Header {
		attrs[k] = r.Header.Get(k)
	}
	resp, _, err := s.Handle(&sim.Context{External: true}, Request{
		Path:  r.URL.Path,
		Op:    r.Header.Get("X-DIY-Op"),
		Body:  body,
		Attrs: attrs,
	})
	switch {
	case errors.Is(err, ErrNoSuchEndpoint):
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	case errors.Is(err, ErrThrottled):
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	status := resp.Status
	if status == 0 {
		status = http.StatusOK
	}
	for k, v := range resp.Attrs {
		w.Header().Set(k, v)
	}
	w.WriteHeader(status)
	w.Write(resp.Body)
}
