package plane

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/sim"
	"repro/internal/cloudsim/trace"
	"repro/internal/pricing"
)

var t0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

func allowAll(t *testing.T) *iam.Service {
	t.Helper()
	svc := iam.New()
	err := svc.PutRole(&iam.Role{
		Name: "fn",
		Policies: []iam.Policy{{
			Name:       "all",
			Statements: []iam.Statement{iam.AllowStatement([]string{"*"}, []string{"*"})},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// tracedCtx returns a traced context and a finish func that folds the
// trace into its own store and returns the stored view.
func tracedCtx() (*sim.Context, func() trace.TraceView) {
	ctx := &sim.Context{Principal: "fn", App: "app", Cursor: sim.NewCursor(t0)}
	tr := ctx.StartTrace(trace.NewStore(nil), "test")
	return ctx, func() trace.TraceView {
		tv, _ := tr.Finish(ctx.Now())
		return tv
	}
}

// TestPipelineOrder drives one fully-featured call and checks each
// stage's observable effect: the span opens at the call instant with
// the call's annotations, the IAM decision lands as a zero-duration
// child span before any latency is paid, the cursor advances, the
// request fee reaches both the meter and the span ledger, and the
// handler runs last (observing the post-latency cursor). The latency
// model has no jitter, so the S3 hop is exactly its 44 ms median and
// the rendered tree states every instant at full precision.
func TestPipelineOrder(t *testing.T) {
	meter := pricing.NewMeter()
	params := netsim.DefaultParams()
	params.Hops[netsim.HopS3].Sigma = 0
	p := New(allowAll(t), meter, netsim.NewModel(params))
	ctx, finish := tracedCtx()

	var handlerAt time.Time
	err := p.Do(ctx, &Call{
		Service:     "svc",
		Op:          "Op",
		Action:      "svc:Op",
		Resource:    "thing/x",
		Annotations: []trace.Annotation{{Key: "k", Value: "v"}},
		Latency:     &Latency{Hop: netsim.HopS3},
		Usage:       []pricing.Usage{{Kind: pricing.S3GetRequests, Quantity: 1}},
	}, func(req *Request) error {
		handlerAt = ctx.Now()
		if req.Span == nil {
			t.Error("handler got no span")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if handlerAt != t0.Add(44*time.Millisecond) {
		t.Errorf("handler ran at %v; want after the 44 ms latency advanced the cursor past %v", handlerAt, t0)
	}

	tv := finish()
	sp, ok := tv.Find("svc", "Op")
	if !ok {
		t.Fatal("no svc/Op span recorded")
	}
	if got, ok := sp.Annotation("k"); !ok || got != "v" {
		t.Errorf("call annotation = %q, %v", got, ok)
	}
	asp, ok := tv.Find("iam", "svc:Op")
	if !ok {
		t.Fatal("no iam child span recorded")
	}
	if res, _ := asp.Annotation("result"); res != "allow" {
		t.Errorf("iam result = %q, want allow", res)
	}
	// The trace root opens at t0, the call instant, so "+0ms" is the
	// span's start; the call span lasts until the handler returned, and
	// the IAM span is its zero-duration child at the same instant.
	lines := strings.Split(tv.Render(pricing.Default2017()), "\n")
	for i, want := range []string{
		"└─ svc Op  +0ms 44ms  k=v  ",
		"   └─ iam svc:Op  +0ms 0ms  result=allow",
	} {
		if len(lines) < i+2 || !strings.HasPrefix(lines[i+1], want) {
			t.Errorf("render line %d = %q, want prefix %q", i+1, lines[min(i+1, len(lines)-1)], want)
		}
	}

	if got := meter.Total(pricing.S3GetRequests); got != 1 {
		t.Errorf("metered %v requests, want 1", got)
	}
	us := tv.Usage() // the call span holds the trace's only usage
	if len(us) != 1 || us[0].Kind != pricing.S3GetRequests || us[0].App != "app" {
		t.Errorf("span ledger = %+v, want one app-stamped request fee", us)
	}
}

// TestDeniedCallStillMetersAndPaysLatency: AWS bills and delays denied
// API calls, so stages 3 and 4 run even when authorization fails — but
// the handler must not.
func TestDeniedCallStillMetersAndPaysLatency(t *testing.T) {
	meter := pricing.NewMeter()
	p := New(iam.New(), meter, netsim.NewDefaultModel()) // no roles: everything denied
	ctx, finish := tracedCtx()

	ran := false
	err := p.Do(ctx, &Call{
		Service:  "svc",
		Op:       "Op",
		Action:   "svc:Op",
		Resource: "thing/x",
		Latency:  &Latency{Hop: netsim.HopS3},
		Usage:    []pricing.Usage{{Kind: pricing.S3GetRequests, Quantity: 1}},
	}, func(*Request) error {
		ran = true
		return nil
	})
	if !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
	if ran {
		t.Error("handler ran on a denied call")
	}
	if got := meter.Total(pricing.S3GetRequests); got != 1 {
		t.Errorf("denied call metered %v requests, want 1", got)
	}
	if !ctx.Now().After(t0) {
		t.Error("denied call paid no latency")
	}
	tv := finish()
	sp, _ := tv.Find("svc", "Op")
	if msg, _ := sp.Annotation("error"); msg != "access-denied" {
		t.Errorf("error annotation = %q, want access-denied", msg)
	}
	asp, _ := tv.Find("iam", "svc:Op")
	if res, _ := asp.Annotation("result"); res != "deny" {
		t.Errorf("iam result = %q, want deny", res)
	}
}

// TestNilIAMFailsClosed: an authenticated Call on a plane with no IAM
// service must deny, not silently allow.
func TestNilIAMFailsClosed(t *testing.T) {
	p := New(nil, nil, nil)
	err := p.Do(nil, &Call{Service: "svc", Op: "Op", Action: "svc:Op"}, func(*Request) error {
		t.Error("handler ran")
		return nil
	})
	if !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
}

// TestInterceptorSeam: Use-registered interceptors wrap the handler
// stage in registration order, first registered outermost, and can
// short-circuit it.
func TestInterceptorSeam(t *testing.T) {
	p := New(nil, nil, nil)
	var order []string
	mk := func(name string) Interceptor {
		return func(next HandlerFunc) HandlerFunc {
			return func(req *Request) error {
				order = append(order, name+">")
				err := next(req)
				order = append(order, "<"+name)
				return err
			}
		}
	}
	p.Use(mk("outer"), mk("inner"))
	err := p.Do(nil, &Call{Service: "svc", Op: "Op"}, func(*Request) error {
		order = append(order, "handler")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"outer>", "inner>", "handler", "<inner", "<outer"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}

	boom := errors.New("injected")
	p2 := New(nil, nil, nil)
	p2.Use(func(HandlerFunc) HandlerFunc {
		return func(*Request) error { return boom }
	})
	err = p2.Do(nil, &Call{Service: "svc", Op: "Op"}, func(*Request) error {
		t.Error("short-circuited handler ran")
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
}

// TestInterceptorSeesDenial: interceptors wrap the handler stage even
// when authorization fails — the wrapped stage returns ErrDenied with
// the service handler skipped — so observability interceptors can
// count denials.
func TestInterceptorSeesDenial(t *testing.T) {
	meter := pricing.NewMeter()
	p := New(iam.New(), meter, netsim.NewDefaultModel()) // no roles: everything denied
	var observed error
	calls := 0
	p.Use(func(next HandlerFunc) HandlerFunc {
		return func(req *Request) error {
			calls++
			observed = next(req)
			return observed
		}
	})
	ctx, _ := tracedCtx()
	err := p.Do(ctx, &Call{
		Service:  "svc",
		Op:       "Op",
		Action:   "svc:Op",
		Resource: "thing/x",
		Usage:    []pricing.Usage{{Kind: pricing.S3GetRequests, Quantity: 1}},
	}, func(*Request) error {
		t.Error("handler ran on a denied call")
		return nil
	})
	if !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
	if calls != 1 {
		t.Fatalf("interceptor ran %d times, want 1", calls)
	}
	if !errors.Is(observed, iam.ErrDenied) {
		t.Errorf("interceptor observed %v, want ErrDenied", observed)
	}
}

// TestRequestObservability: Start reports the pre-latency cursor
// instant and Metered accumulates the request fee plus handler-metered
// usage, so interceptors can derive latency and cost per call.
func TestRequestObservability(t *testing.T) {
	meter := pricing.NewMeter()
	p := New(allowAll(t), meter, netsim.NewDefaultModel())
	ctx, _ := tracedCtx()

	var req *Request
	p.Use(func(next HandlerFunc) HandlerFunc {
		return func(r *Request) error {
			req = r
			return next(r)
		}
	})
	err := p.Do(ctx, &Call{
		Service: "svc",
		Op:      "Op",
		Action:  "svc:Op",
		Latency: &Latency{Hop: netsim.HopS3},
		Usage:   []pricing.Usage{{Kind: pricing.S3GetRequests, Quantity: 1}},
	}, func(r *Request) error {
		r.MeterUsage(pricing.Usage{Kind: pricing.TransferOutGB, Quantity: 2})
		r.MeterUsageAs(pricing.Usage{Kind: pricing.LambdaRequests, Quantity: 1, App: "fn-app"})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if req.Start() != t0 {
		t.Errorf("Start() = %v, want the call instant %v", req.Start(), t0)
	}
	if !ctx.Now().After(req.Start()) {
		t.Error("cursor did not advance past Start(); latency unobservable")
	}
	us := req.Metered()
	if len(us) != 3 {
		t.Fatalf("Metered() = %d records, want request fee + 2 handler records", len(us))
	}
	if us[0].Kind != pricing.S3GetRequests || us[0].App != "app" {
		t.Errorf("request fee = %+v", us[0])
	}
	if us[1].Kind != pricing.TransferOutGB || us[1].App != "app" {
		t.Errorf("MeterUsage record = %+v, want app restamped", us[1])
	}
	if us[2].Kind != pricing.LambdaRequests || us[2].App != "fn-app" {
		t.Errorf("MeterUsageAs record = %+v, want caller's attribution kept", us[2])
	}
	// Both meter paths really metered.
	if meter.Total(pricing.TransferOutGB) != 2 || meter.Total(pricing.LambdaRequests) != 1 {
		t.Error("handler-metered usage missing from the meter")
	}
}

// TestHandlerErrorAnnotation: a failing handler annotates the span
// with its error, but never overwrites an annotation the handler set
// itself.
func TestHandlerErrorAnnotation(t *testing.T) {
	p := New(nil, nil, nil)
	ctx, finish := tracedCtx()
	wantErr := errors.New("svc: thing exploded")
	if err := p.Do(ctx, &Call{Service: "svc", Op: "Op"}, func(*Request) error {
		return wantErr
	}); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	sp, _ := finish().Find("svc", "Op")
	if msg, _ := sp.Annotation("error"); msg != wantErr.Error() {
		t.Errorf("error annotation = %q, want %q", msg, wantErr.Error())
	}

	ctx2, finish2 := tracedCtx()
	p.Do(ctx2, &Call{Service: "svc", Op: "Short"}, func(req *Request) error {
		req.Span.Annotate("error", "short-token")
		return wantErr
	})
	sp, _ = finish2().Find("svc", "Short")
	if msg, _ := sp.Annotation("error"); msg != "short-token" {
		t.Errorf("handler's own error annotation was overwritten: %q", msg)
	}
}

// TestLatencyModel: the latency stage reproduces the service formulas —
// scale factor, memory coupling against the 448 MB reference, and
// payload transfer at the allocation's bandwidth — against an
// identically-seeded model.
func TestLatencyModel(t *testing.T) {
	const memMB = 128
	const payload = int64(1 << 20)
	p := New(nil, nil, netsim.NewDefaultModel())
	ref := netsim.NewDefaultModel() // same seed, same stream

	ctx := &sim.Context{Cursor: sim.NewCursor(t0), FunctionMemMB: memMB}
	err := p.Do(ctx, &Call{
		Service: "svc",
		Op:      "Op",
		Latency: &Latency{Hop: netsim.HopS3, MemoryCoupled: true, TransferBytes: payload},
	}, func(*Request) error { return nil })
	if err != nil {
		t.Fatal(err)
	}

	d := ref.Sample(netsim.HopS3)
	d = time.Duration(float64(d) * netsim.MemoryLatencyFactor(memMB, RefMemoryMB))
	d += netsim.TransferTime(payload, netsim.BandwidthMBps(memMB))
	if got := ctx.Cursor.Elapsed(); got != d {
		t.Errorf("latency = %v, want %v", got, d)
	}

	// Scale divides the base sample like dynamo's quarter-hop.
	p2 := New(nil, nil, netsim.NewDefaultModel())
	ref2 := netsim.NewDefaultModel()
	ctx2 := &sim.Context{Cursor: sim.NewCursor(t0)}
	if err := p2.Do(ctx2, &Call{Service: "svc", Op: "Op", Latency: &Latency{Hop: netsim.HopS3, Scale: 0.25}},
		func(*Request) error { return nil }); err != nil {
		t.Fatal(err)
	}
	want := time.Duration(float64(ref2.Sample(netsim.HopS3)) * 0.25)
	if got := ctx2.Cursor.Elapsed(); got != want {
		t.Errorf("scaled latency = %v, want %v", got, want)
	}
}

// TestNilSafety: untraced, meterless, modelless planes and nil
// contexts must all be usable no-ops around the handler.
func TestNilSafety(t *testing.T) {
	p := New(nil, nil, nil)
	ran := false
	err := p.Do(nil, &Call{
		Service: "svc",
		Op:      "Op",
		Latency: &Latency{Hop: netsim.HopS3},
		Usage:   []pricing.Usage{{Kind: pricing.S3GetRequests, Quantity: 1}},
	}, func(req *Request) error {
		ran = true
		req.MeterUsage(pricing.Usage{Kind: pricing.TransferOutGB, Quantity: 1}) // nil meter: no-op
		return nil
	})
	if err != nil || !ran {
		t.Fatalf("err = %v, ran = %v", err, ran)
	}
}

// TestRegistry: Register/Ops is sorted and append-only.
func TestRegistry(t *testing.T) {
	before := len(Ops())
	Register(Op{Service: "ztest", Method: "B"}, Op{Service: "ztest", Method: "A"})
	ops := Ops()
	if len(ops) != before+2 {
		t.Fatalf("Ops() grew by %d, want 2", len(ops)-before)
	}
	for i := 1; i < len(ops); i++ {
		a, b := ops[i-1], ops[i]
		if a.Service > b.Service || (a.Service == b.Service && a.Method > b.Method) {
			t.Fatalf("Ops() not sorted at %d: %+v > %+v", i, a, b)
		}
	}
}
