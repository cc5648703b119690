package logs

import (
	"errors"
	"strconv"
	"time"
	"unsafe"

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
// The hot path allocates nothing of its own per event: the
// message is built with append-style formatting in a fixed-size stack
// buffer and copied into the stream's bytes, the numeric field values
// point at their bytes inside that message, the values that repeat
// (service, op, outcome, principal, app) are interned ids, and fields
// go into a stack array of typed slots instead of a map. The finished
// event is appended straight into the store under its one lock, which
// also interns the plane group per service. The `hotpath` diylint
// analyzer keeps fmt formatting and map literals out of this path.
func PlaneInterceptor(s *Service, book *pricing.PriceBook, clk clock.Clock) plane.Interceptor {
	pub := &logPublisher{svc: s, book: book, clk: clk}
	return func(next plane.HandlerFunc) plane.HandlerFunc {
		return func(req *plane.Request) error {
			err := next(req)
			pub.publish(req, err)
			return err
		}
	}
}

// logPublisher is the per-interceptor publication state. It holds no
// lock of its own: everything mutable lives in the store.
type logPublisher struct {
	svc  *Service
	book *pricing.PriceBook
	clk  clock.Clock
}

// publish encodes and stores the call's event. The message rendering
// is byte-identical to the historical
//
//	"%s:%s outcome=%s latency_ms=%s cost_nanodollars=%d principal=%s"
//
// Sprintf (log-stream determinism goldens pin it), built with append
// formatting into a stack buffer instead and copied from there into
// the stream's bytes, never into a string of its own.
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

	var buf [160]byte
	b := append(buf[:0], req.Call.Service...)
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

	var slots [8]fieldIn
	fs := append(slots[:0],
		fieldIn{key: keyService, val: req.Call.Service, intern: true},
		fieldIn{key: keyOp, val: req.Call.Op, intern: true},
		fieldIn{key: keyOutcome, val: outcome, intern: true},
		fieldIn{key: keyCost, lo: costLo, hi: costHi, inMsg: true},
	)
	if principal != "" {
		fs = append(fs, fieldIn{key: keyPrincipal, val: principal, intern: true})
	}
	if app != "" {
		fs = append(fs, fieldIn{key: keyApp, val: app, intern: true})
	}
	if measurable {
		fs = append(fs, fieldIn{key: keyLatency, lo: latLo, hi: latHi, inMsg: true})
	}
	if err != nil {
		fs = append(fs, fieldIn{key: keyError, val: err.Error()})
	}
	p.svc.appendPlaneEvent(req.Call.Service, req.Call.Op, at, b, fs)
}

// appendPlaneEvent lands one plane event in group "plane/<service>",
// stream op, creating both on first use; the service's group is
// interned so its name is built once. The message and fields are
// copied into the stream's bytes or interned, so the caller's buffer
// and slots may live on its stack.
func (s *Service) appendPlaneEvent(service, op string, at time.Time, msg []byte, fs []fieldIn) {
	s.mu.Lock()
	g := s.planeGroups[service]
	if g == nil {
		g = s.ensureGroupLocked(PlaneGroup(service))
		s.planeGroups[service] = g
	}
	s.appendLocked(g, s.ensureStreamLocked(g, op), at, unsafe.String(unsafe.SliceData(msg), len(msg)), fs)
	s.mu.Unlock()
}
