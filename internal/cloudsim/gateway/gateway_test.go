package gateway

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/sim"
	"repro/internal/pricing"
)

type fixture struct {
	meter    *pricing.Meter
	model    *netsim.Model
	platform *lambda.Platform
	gw       *Service
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{meter: pricing.NewMeter(), model: netsim.NewDefaultModel()}
	clk := clock.NewVirtual()
	f.platform = lambda.New(f.meter, f.model, clk, nil, nil)
	f.gw = New(f.platform, f.meter, f.model, clk)
	err := f.platform.RegisterFunction(lambda.Function{
		Name: "chat-fn",
		App:  "chat",
		Handler: func(env *lambda.Env, ev lambda.Event) (lambda.Response, error) {
			env.Compute(5 * time.Millisecond)
			return lambda.Response{Status: 200, Body: append([]byte("op="+ev.Op+" "), ev.Body...)}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.gw.RegisterEndpoint("/chat", "chat-fn", Limit{}); err != nil {
		t.Fatal(err)
	}
	return f
}

func extCtx() *sim.Context {
	return &sim.Context{App: "chat", Cursor: sim.NewCursor(clock.Epoch), External: true}
}

func TestHandleRoutesToFunction(t *testing.T) {
	f := newFixture(t)
	ctx := extCtx()
	resp, stats, err := f.gw.Handle(ctx, Request{Path: "/chat", Op: "send", Body: []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "op=send hi" {
		t.Fatalf("resp = %+v", resp)
	}
	if stats.BilledTime < 100*time.Millisecond {
		t.Fatalf("billed %v", stats.BilledTime)
	}
	// E2E latency includes both client legs plus execution.
	if ctx.Cursor.Elapsed() <= stats.RunTime {
		t.Fatalf("E2E %v not greater than run %v", ctx.Cursor.Elapsed(), stats.RunTime)
	}
}

func TestHandleUnknownEndpoint(t *testing.T) {
	f := newFixture(t)
	_, _, err := f.gw.Handle(extCtx(), Request{Path: "/nope"})
	if !errors.Is(err, ErrNoSuchEndpoint) {
		t.Fatalf("got %v, want ErrNoSuchEndpoint", err)
	}
}

func TestRegisterEndpointValidation(t *testing.T) {
	f := newFixture(t)
	if err := f.gw.RegisterEndpoint("", "chat-fn", Limit{}); err == nil {
		t.Fatal("empty path accepted")
	}
	if err := f.gw.RegisterEndpoint("/x", "ghost", Limit{}); !errors.Is(err, lambda.ErrNoSuchFunction) {
		t.Fatalf("got %v, want ErrNoSuchFunction", err)
	}
}

func TestRemoveEndpoint(t *testing.T) {
	f := newFixture(t)
	f.gw.RemoveEndpoint("/chat")
	if _, _, err := f.gw.Handle(extCtx(), Request{Path: "/chat"}); !errors.Is(err, ErrNoSuchEndpoint) {
		t.Fatal("endpoint survived removal")
	}
	f.gw.RemoveEndpoint("/chat") // idempotent
}

func TestThrottleBurstThenRefill(t *testing.T) {
	f := newFixture(t)
	if err := f.gw.RegisterEndpoint("/limited", "chat-fn", Limit{RPS: 1, Burst: 3}); err != nil {
		t.Fatal(err)
	}
	ctx := extCtx()
	// The first 3 requests drain the burst; note each request advances
	// the cursor only slightly (sub-second), refilling < 1 token.
	okCount, throttledCount := 0, 0
	for i := 0; i < 5; i++ {
		_, _, err := f.gw.Handle(ctx, Request{Path: "/limited"})
		switch {
		case err == nil:
			okCount++
		case errors.Is(err, ErrThrottled):
			throttledCount++
		default:
			t.Fatal(err)
		}
	}
	if okCount < 3 || throttledCount == 0 {
		t.Fatalf("ok=%d throttled=%d; want >=3 ok and some throttled", okCount, throttledCount)
	}
	if f.gw.Throttled() != int64(throttledCount) {
		t.Fatalf("Throttled() = %d, want %d", f.gw.Throttled(), throttledCount)
	}
	// After 10 simulated seconds the bucket refills.
	ctx.Cursor.Advance(10 * time.Second)
	if _, _, err := f.gw.Handle(ctx, Request{Path: "/limited"}); err != nil {
		t.Fatalf("request after refill throttled: %v", err)
	}
}

func TestThrottleCapsDDoSCost(t *testing.T) {
	// §8.2: DDoS attacks impose financial cost; the throttle bounds the
	// number of billed invocations no matter how many requests arrive.
	f := newFixture(t)
	if err := f.gw.RegisterEndpoint("/t", "chat-fn", Limit{RPS: 10, Burst: 10}); err != nil {
		t.Fatal(err)
	}
	before := f.meter.Total(pricing.LambdaRequests)
	start := extCtx().Cursor.Now() // all within one instant: only the burst passes
	for i := 0; i < 1000; i++ {
		c := &sim.Context{Cursor: sim.NewCursor(start), External: true}
		f.gw.Handle(c, Request{Path: "/t"})
	}
	invoked := f.meter.Total(pricing.LambdaRequests) - before
	if invoked > 30 {
		t.Fatalf("DDoS burst caused %v billed invocations; throttle ineffective", invoked)
	}
}

func TestExternalResponseMetersTransfer(t *testing.T) {
	f := newFixture(t)
	big := make([]byte, 1_000_000)
	f.platform.RegisterFunction(lambda.Function{
		Name: "big-fn", App: "chat",
		Handler: func(env *lambda.Env, ev lambda.Event) (lambda.Response, error) {
			return lambda.Response{Status: 200, Body: big}, nil
		},
	})
	f.gw.RegisterEndpoint("/big", "big-fn", Limit{})

	f.gw.Handle(extCtx(), Request{Path: "/big"})
	if got := f.meter.Total(pricing.TransferOutGB); got < 0.0009 || got > 0.0012 {
		t.Fatalf("transfer metered %v GB, want ~0.001", got)
	}

	// Internal (non-external) calls are not billed egress.
	before := f.meter.Total(pricing.TransferOutGB)
	internal := &sim.Context{Cursor: sim.NewCursor(clock.Epoch)}
	f.gw.Handle(internal, Request{Path: "/big"})
	if got := f.meter.Total(pricing.TransferOutGB); got != before {
		t.Fatal("internal call billed egress")
	}
}

func TestServeHTTP(t *testing.T) {
	f := newFixture(t)
	srv := httptest.NewServer(f.gw)
	defer srv.Close()

	req, _ := http.NewRequest("POST", srv.URL+"/chat", strings.NewReader("hello"))
	req.Header.Set("X-DIY-Op", "send")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || string(body) != "op=send hello" {
		t.Fatalf("status %d body %q", resp.StatusCode, body)
	}

	// Unknown path maps to 404.
	r2, err := http.Post(srv.URL+"/ghost", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status %d", r2.StatusCode)
	}
}

func TestServeHTTPThrottled(t *testing.T) {
	f := newFixture(t)
	f.gw.RegisterEndpoint("/tight", "chat-fn", Limit{RPS: 0.001, Burst: 1})
	srv := httptest.NewServer(f.gw)
	defer srv.Close()
	r1, err := http.Post(srv.URL+"/tight", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	r1.Body.Close()
	r2, err := http.Post(srv.URL+"/tight", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r1.StatusCode != 200 || r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("statuses %d, %d; want 200, 429", r1.StatusCode, r2.StatusCode)
	}
}

func TestEndpointStats(t *testing.T) {
	f := newFixture(t)
	if err := f.gw.RegisterEndpoint("/stat", "chat-fn", Limit{RPS: 1, Burst: 2}); err != nil {
		t.Fatal(err)
	}
	ctx := extCtx()
	served, rejected := 0, 0
	for i := 0; i < 5; i++ {
		if _, _, err := f.gw.Handle(ctx, Request{Path: "/stat"}); err == nil {
			served++
		} else {
			rejected++
		}
	}
	st, ok := f.gw.Stats("/stat")
	if !ok {
		t.Fatal("stats missing")
	}
	if st.Requests != int64(served) || st.Rejected != int64(rejected) {
		t.Fatalf("stats = %+v, want %d served %d rejected", st, served, rejected)
	}
	if st.MeanRun <= 0 {
		t.Fatalf("mean run = %v", st.MeanRun)
	}
	if _, ok := f.gw.Stats("/ghost"); ok {
		t.Fatal("stats for unknown endpoint")
	}
}
