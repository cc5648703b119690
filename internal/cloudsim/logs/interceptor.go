package logs

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/plane"
	"repro/internal/pricing"
)

// PlaneInterceptor returns a plane.Use interceptor that appends one
// structured log event per call routed through the plane it is
// installed on — the logs-side twin of metrics.PlaneInterceptor. The
// event lands in group "plane/<service>", stream "<op>", timestamped
// at the flow cursor's post-call instant (falling back to the service
// clock for cursor-less flows), with the outcome, principal, app,
// consumed latency, and the call's list-priced cost as structured
// fields plus a compact key=value message rendering.
//
// Like the metrics interceptor it only reads the request — it never
// meters, samples randomness, or advances a cursor — so installing it
// cannot move a ledger-parity golden by a nanodollar
// (TestLogsPreserveLedger proves bit-identity with logging off).
//
// The hot path is allocation-lean: a pooled encoder renders the
// message with append-style formatting (the numeric field values are
// substrings of the message, not separate allocations), fields go into
// typed slots instead of a map, group names intern once per service,
// and the finished event is appended straight into the store.
// The `hotpath` diylint analyzer keeps fmt formatting and map literals
// out of this path.
func PlaneInterceptor(s *Service, book *pricing.PriceBook, clk clock.Clock) plane.Interceptor {
	pub := &logPublisher{
		svc:    s,
		book:   book,
		clk:    clk,
		groups: make(map[string]string),
	}
	return func(next plane.HandlerFunc) plane.HandlerFunc {
		return func(req *plane.Request) error {
			err := next(req)
			pub.publish(req, err)
			return err
		}
	}
}

// encoder is a reusable message/field-slot builder. Pooled so
// concurrent flows each grab their own scratch buffers instead of
// allocating per event.
type encoder struct {
	buf    []byte
	fields []field
}

var encPool = sync.Pool{New: func() any { return new(encoder) }}

// logPublisher is the per-interceptor publication state.
type logPublisher struct {
	svc  *Service
	book *pricing.PriceBook
	clk  clock.Clock

	mu     sync.Mutex
	groups map[string]string // service -> interned "plane/<service>"
}

// group interns the plane log-group name for a service, building the
// string once per service rather than once per call.
func (p *logPublisher) group(service string) string {
	p.mu.Lock()
	g, ok := p.groups[service]
	if !ok {
		g = PlaneGroup(service)
		p.groups[service] = g
	}
	p.mu.Unlock()
	return g
}

// publish encodes and stores the call's event. The message rendering
// is byte-identical to the historical
//
//	"%s:%s outcome=%s latency_ms=%s cost_nanodollars=%d principal=%s"
//
// Sprintf (log-stream determinism goldens pin it), built with append
// formatting into a pooled buffer instead.
func (p *logPublisher) publish(req *plane.Request, err error) {
	at := req.Ctx.Now()
	if at.IsZero() && p.clk != nil {
		at = p.clk.Now()
	}
	outcome := "ok"
	switch {
	case errors.Is(err, iam.ErrDenied):
		outcome = "denied"
	case err != nil:
		outcome = "error"
	}
	var cost pricing.Money
	for _, u := range req.Metered() {
		cost += p.book.ListPrice(u)
	}
	costNanos := cost.Nanodollars()
	principal, app := "", ""
	if req.Ctx != nil {
		principal, app = req.Ctx.Principal, req.Ctx.App
	}
	measurable := false
	var ms float64
	if start := req.Start(); !start.IsZero() && !at.Before(start) {
		measurable = true
		ms = float64(at.Sub(start)) / float64(time.Millisecond)
	}

	enc := encPool.Get().(*encoder)
	b := enc.buf[:0]
	b = append(b, req.Call.Service...)
	b = append(b, ':')
	b = append(b, req.Call.Op...)
	b = append(b, " outcome="...)
	b = append(b, outcome...)
	b = append(b, " latency_ms="...)
	latLo := len(b)
	if measurable {
		b = strconv.AppendFloat(b, ms, 'f', 3, 64)
	} else {
		b = append(b, '-')
	}
	latHi := len(b)
	b = append(b, " cost_nanodollars="...)
	costLo := len(b)
	b = strconv.AppendInt(b, costNanos, 10)
	costHi := len(b)
	b = append(b, " principal="...)
	b = append(b, principal...)
	enc.buf = b
	msg := string(b)

	fs := enc.fields[:0]
	fs = append(fs,
		field{k: "service", v: req.Call.Service},
		field{k: "op", v: req.Call.Op},
		field{k: "outcome", v: outcome},
		field{k: "cost_nanodollars", v: msg[costLo:costHi]},
	)
	if principal != "" {
		fs = append(fs, field{k: "principal", v: principal})
	}
	if app != "" {
		fs = append(fs, field{k: "app", v: app})
	}
	if measurable {
		fs = append(fs, field{k: "latency_ms", v: msg[latLo:latHi]})
	}
	if err != nil {
		fs = append(fs, field{k: "error", v: err.Error()})
	}
	enc.fields = fs

	p.svc.appendEvent(p.group(req.Call.Service), req.Call.Op, at, msg, fs)
	encPool.Put(enc)
}

// appendEvent lands one event in group/stream, creating both on first
// use. The fields are copied into the stream's arena, so the caller may
// reuse fs immediately.
func (s *Service) appendEvent(groupName, streamName string, at time.Time, msg string, fs []field) {
	s.mu.Lock()
	g := s.ensureGroupLocked(groupName)
	s.appendLocked(g, s.ensureStreamLocked(g, streamName), at, msg, fs)
	s.mu.Unlock()
}
