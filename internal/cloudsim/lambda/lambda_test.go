package lambda

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/kms"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/s3"
	"repro/internal/cloudsim/sim"
	"repro/internal/cloudsim/sqs"
	"repro/internal/pricing"
)

type fixture struct {
	iam      *iam.Service
	meter    *pricing.Meter
	model    *netsim.Model
	clk      *clock.Virtual
	kms      *kms.Service
	s3       *s3.Service
	sqs      *sqs.Service
	platform *Platform
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{
		iam:   iam.New(),
		meter: pricing.NewMeter(),
		model: netsim.NewDefaultModel(),
		clk:   clock.NewVirtual(),
	}
	f.kms = kms.New(f.iam, f.meter, f.model, f.clk, nil)
	f.s3 = s3.New(f.iam, f.meter, f.model, f.clk)
	f.sqs = sqs.New(f.iam, f.meter, f.model, f.clk)
	f.platform = New(f.meter, f.model, f.clk, nil, nil)
	f.platform.SetServices(Services{KMS: f.kms, S3: f.s3, SQS: f.sqs})

	if err := f.kms.CreateKey("k", false); err != nil {
		t.Fatal(err)
	}
	if err := f.s3.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	err := f.iam.PutRole(&iam.Role{
		Name: "fn-role",
		Policies: []iam.Policy{{
			Name: "all",
			Statements: []iam.Statement{
				iam.AllowStatement([]string{"kms:*", "s3:*", "sqs:*"}, []string{"*"}),
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *fixture) register(t *testing.T, fn Function) {
	t.Helper()
	if fn.Role == "" {
		fn.Role = "fn-role"
	}
	if err := f.platform.RegisterFunction(fn); err != nil {
		t.Fatal(err)
	}
}

func (f *fixture) ctx() *sim.Context {
	return &sim.Context{Cursor: sim.NewCursor(clock.Epoch), External: true}
}

func echoHandler(env *Env, ev Event) (Response, error) {
	env.Compute(10 * time.Millisecond)
	return Response{Status: 200, Body: ev.Body}, nil
}

func TestRegisterValidation(t *testing.T) {
	f := newFixture(t)
	if err := f.platform.RegisterFunction(Function{}); err == nil {
		t.Fatal("unnamed function accepted")
	}
	if err := f.platform.RegisterFunction(Function{Name: "x"}); err == nil {
		t.Fatal("handlerless function accepted")
	}
	f.register(t, Function{Name: "dup", Handler: echoHandler})
	if err := f.platform.RegisterFunction(Function{Name: "dup", Handler: echoHandler, Role: "fn-role"}); err == nil {
		t.Fatal("duplicate function accepted")
	}
}

func TestMemoryClampingAndRounding(t *testing.T) {
	f := newFixture(t)
	cases := []struct{ in, want int }{
		{0, 128}, {100, 128}, {130, 192}, {448, 448}, {2000, 1536}, {1535, 1536},
	}
	for i, c := range cases {
		name := string(rune('a' + i))
		f.register(t, Function{Name: name, Handler: echoHandler, MemoryMB: c.in})
		got, _ := f.platform.Function(name)
		if got.MemoryMB != c.want {
			t.Errorf("memory %d clamped to %d, want %d", c.in, got.MemoryMB, c.want)
		}
	}
}

func TestInvokeEcho(t *testing.T) {
	f := newFixture(t)
	f.register(t, Function{Name: "echo", Handler: echoHandler, MemoryMB: 128})
	resp, stats, err := f.platform.Invoke(f.ctx(), "echo", Event{Body: []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !bytes.Equal(resp.Body, []byte("hi")) {
		t.Fatalf("resp = %+v", resp)
	}
	if stats.RunTime < 10*time.Millisecond {
		t.Fatalf("run time %v below declared compute", stats.RunTime)
	}
	if !stats.ColdStart {
		t.Fatal("first invocation must be a cold start")
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	f := newFixture(t)
	if _, _, err := f.platform.Invoke(f.ctx(), "ghost", Event{}); !errors.Is(err, ErrNoSuchFunction) {
		t.Fatalf("got %v, want ErrNoSuchFunction", err)
	}
}

func TestBillingQuantum(t *testing.T) {
	// The paper's Table 3: a 134 ms run bills 200 ms.
	tests := []struct {
		run, want time.Duration
	}{
		{0, 100 * time.Millisecond},
		{1 * time.Millisecond, 100 * time.Millisecond},
		{100 * time.Millisecond, 100 * time.Millisecond},
		{101 * time.Millisecond, 200 * time.Millisecond},
		{134 * time.Millisecond, 200 * time.Millisecond},
		{200 * time.Millisecond, 200 * time.Millisecond},
		{1999 * time.Millisecond, 2000 * time.Millisecond},
	}
	for _, tt := range tests {
		if got := billQuantum(tt.run); got != tt.want {
			t.Errorf("billQuantum(%v) = %v, want %v", tt.run, got, tt.want)
		}
	}
}

func TestGBSecondsAccounting(t *testing.T) {
	f := newFixture(t)
	f.register(t, Function{Name: "fn", Handler: func(env *Env, ev Event) (Response, error) {
		env.Compute(450 * time.Millisecond)
		return Response{Status: 200}, nil
	}, MemoryMB: 512})
	_, stats, err := f.platform.Invoke(f.ctx(), "fn", Event{})
	if err != nil {
		t.Fatal(err)
	}
	// 450 ms + cold start (~250 ms) rounds to a 100 ms multiple; at
	// 512 MB that is billed/1000ms * 0.5 GB.
	wantGBs := stats.BilledTime.Seconds() * 0.5
	if stats.GBSeconds != wantGBs {
		t.Fatalf("GBSeconds = %v, want %v", stats.GBSeconds, wantGBs)
	}
	if got := f.meter.Total(pricing.LambdaGBSeconds); got != wantGBs {
		t.Fatalf("metered GB-s = %v, want %v", got, wantGBs)
	}
	if got := f.meter.Total(pricing.LambdaRequests); got != 1 {
		t.Fatalf("metered requests = %v, want 1", got)
	}
}

func TestWarmAndColdStarts(t *testing.T) {
	f := newFixture(t)
	f.register(t, Function{Name: "fn", Handler: echoHandler})
	ctx := f.ctx()
	_, s1, _ := f.platform.Invoke(ctx, "fn", Event{})
	_, s2, _ := f.platform.Invoke(ctx, "fn", Event{})
	if !s1.ColdStart {
		t.Fatal("first invocation should cold start")
	}
	if s2.ColdStart {
		t.Fatal("second invocation on the same timeline should reuse the warm container")
	}
	if s1.RunTime <= s2.RunTime {
		t.Fatalf("cold run (%v) should exceed warm run (%v)", s1.RunTime, s2.RunTime)
	}
	inv, cold := f.platform.Stats("fn")
	if inv != 2 || cold != 1 {
		t.Fatalf("stats = %d invocations, %d cold; want 2, 1", inv, cold)
	}
}

func TestWarmPoolTTLEviction(t *testing.T) {
	f := newFixture(t)
	f.register(t, Function{Name: "fn", Handler: echoHandler})
	f.platform.SetWarmTTL(time.Minute)

	ctx := f.ctx()
	f.platform.Invoke(ctx, "fn", Event{})
	if f.platform.WarmContainers("fn") != 1 {
		t.Fatal("container not retained")
	}
	// After 10 idle minutes on the timeline, the container is stale:
	// the next invocation cold-starts and eviction collects the corpse.
	ctx.Cursor.Advance(10 * time.Minute)
	_, stats, _ := f.platform.Invoke(ctx, "fn", Event{})
	if !stats.ColdStart {
		t.Fatal("stale container reused past TTL")
	}
	if n := f.platform.WarmContainers("fn"); n != 1 {
		t.Fatalf("warm containers = %d, want 1 (stale one evicted)", n)
	}
}

func TestConcurrentInvocationsScaleOut(t *testing.T) {
	// Two invocations whose containers are simultaneously busy must get
	// separate containers (auto-scaling).
	f := newFixture(t)
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	f.register(t, Function{Name: "fn", Handler: func(env *Env, ev Event) (Response, error) {
		started <- struct{}{}
		<-release
		return Response{Status: 200}, nil
	}})
	done := make(chan InvocationStats, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, st, _ := f.platform.Invoke(f.ctx(), "fn", Event{})
			done <- st
		}()
	}
	<-started
	<-started
	close(release)
	s1, s2 := <-done, <-done
	if !s1.ColdStart || !s2.ColdStart {
		t.Fatal("concurrent invocations should each cold start a container")
	}
	if f.platform.WarmContainers("fn") != 2 {
		t.Fatalf("warm containers = %d, want 2", f.platform.WarmContainers("fn"))
	}
}

func TestTimeout(t *testing.T) {
	f := newFixture(t)
	f.register(t, Function{Name: "slow", Timeout: time.Second, Handler: func(env *Env, ev Event) (Response, error) {
		env.Compute(5 * time.Second)
		return Response{Status: 200}, nil
	}})
	_, stats, err := f.platform.Invoke(f.ctx(), "slow", Event{})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if stats.RunTime > time.Second {
		t.Fatalf("billed run time %v exceeds the timeout", stats.RunTime)
	}
}

func TestHandlerServiceCallsAccrueRunTime(t *testing.T) {
	f := newFixture(t)
	f.register(t, Function{Name: "fn", MemoryMB: 448, Handler: func(env *Env, ev Event) (Response, error) {
		if err := env.S3().Put(env.Ctx(), "b", "k", []byte("data")); err != nil {
			return Response{Status: 500}, err
		}
		if _, err := env.S3().Get(env.Ctx(), "b", "k"); err != nil {
			return Response{Status: 500}, err
		}
		return Response{Status: 200}, nil
	}})
	ctx := f.ctx()
	_, s1, err := f.platform.Invoke(ctx, "fn", Event{})
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := f.platform.Invoke(ctx, "fn", Event{}) // warm
	if err != nil {
		t.Fatal(err)
	}
	_ = s1
	// Warm run time ≈ two S3 calls at 448 MB (≈27 ms median each).
	if s2.RunTime < 20*time.Millisecond || s2.RunTime > 200*time.Millisecond {
		t.Fatalf("warm run with two S3 calls = %v, outside plausible band", s2.RunTime)
	}
}

func TestCallerCursorAbsorbsExecution(t *testing.T) {
	f := newFixture(t)
	f.register(t, Function{Name: "fn", Handler: func(env *Env, ev Event) (Response, error) {
		env.Compute(300 * time.Millisecond)
		return Response{Status: 200}, nil
	}})
	ctx := f.ctx()
	_, stats, _ := f.platform.Invoke(ctx, "fn", Event{})
	if ctx.Cursor.Elapsed() < stats.RunTime {
		t.Fatalf("caller elapsed %v < run time %v", ctx.Cursor.Elapsed(), stats.RunTime)
	}
}

func TestRegionFailover(t *testing.T) {
	f := newFixture(t)
	f.register(t, Function{
		Name: "fn", Handler: echoHandler,
		Regions: []string{"us-west-2", "us-east-1"},
	})
	ctx := f.ctx()
	_, stats, err := f.platform.Invoke(ctx, "fn", Event{})
	if err != nil || stats.Region != "us-west-2" {
		t.Fatalf("healthy: region %q err %v", stats.Region, err)
	}

	f.model.SetOutage("us-west-2", true)
	_, stats, err = f.platform.Invoke(f.ctx(), "fn", Event{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Region != "us-east-1" {
		t.Fatalf("failover region = %q, want us-east-1", stats.Region)
	}

	f.model.SetOutage("us-east-1", true)
	if _, _, err := f.platform.Invoke(f.ctx(), "fn", Event{}); !errors.Is(err, ErrAllRegionsDown) {
		t.Fatalf("both down: got %v, want ErrAllRegionsDown", err)
	}
}

func TestPeakMemoryReported(t *testing.T) {
	f := newFixture(t)
	f.register(t, Function{Name: "fn", Handler: func(env *Env, ev Event) (Response, error) {
		env.RecordMemory(20 << 20)
		env.RecordMemory(51 << 20)
		env.RecordMemory(30 << 20)
		return Response{Status: 200}, nil
	}})
	_, stats, _ := f.platform.Invoke(f.ctx(), "fn", Event{})
	if stats.PeakMemoryBytes != 51<<20 {
		t.Fatalf("peak = %d, want 51 MiB", stats.PeakMemoryBytes)
	}
}

func TestDataKeyCachingSkipsKMS(t *testing.T) {
	f := newFixture(t)
	admin := &sim.Context{Principal: "fn-role", Cursor: sim.NewCursor(clock.Epoch)}
	_, wrapped, err := f.kms.GenerateDataKey(admin, "k")
	if err != nil {
		t.Fatal(err)
	}

	f.register(t, Function{Name: "cached", CacheDataKeys: true, Handler: func(env *Env, ev Event) (Response, error) {
		if _, err := env.DataKey(wrapped); err != nil {
			return Response{Status: 500}, err
		}
		return Response{Status: 200}, nil
	}})

	before := f.meter.Total(pricing.KMSRequests)
	ctx := f.ctx()
	for i := 0; i < 5; i++ {
		if _, _, err := f.platform.Invoke(ctx, "cached", Event{}); err != nil {
			t.Fatal(err)
		}
	}
	kmsCalls := f.meter.Total(pricing.KMSRequests) - before
	if kmsCalls != 1 {
		t.Fatalf("KMS calls with caching = %v, want 1 (cold start only)", kmsCalls)
	}
}

func TestNoCachingCallsKMSEveryTime(t *testing.T) {
	f := newFixture(t)
	admin := &sim.Context{Principal: "fn-role", Cursor: sim.NewCursor(clock.Epoch)}
	_, wrapped, err := f.kms.GenerateDataKey(admin, "k")
	if err != nil {
		t.Fatal(err)
	}
	f.register(t, Function{Name: "uncached", Handler: func(env *Env, ev Event) (Response, error) {
		if _, err := env.DataKey(wrapped); err != nil {
			return Response{Status: 500}, err
		}
		return Response{Status: 200}, nil
	}})
	before := f.meter.Total(pricing.KMSRequests)
	ctx := f.ctx()
	for i := 0; i < 5; i++ {
		f.platform.Invoke(ctx, "uncached", Event{})
	}
	if got := f.meter.Total(pricing.KMSRequests) - before; got != 5 {
		t.Fatalf("KMS calls without caching = %v, want 5", got)
	}
}

func TestRemoveFunctionScrubs(t *testing.T) {
	f := newFixture(t)
	f.register(t, Function{Name: "fn", Handler: echoHandler})
	f.platform.Invoke(f.ctx(), "fn", Event{})
	if err := f.platform.RemoveFunction("fn"); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.platform.Function("fn"); ok {
		t.Fatal("function survived removal")
	}
	if _, _, err := f.platform.Invoke(f.ctx(), "fn", Event{}); !errors.Is(err, ErrNoSuchFunction) {
		t.Fatal("removed function still invokable")
	}
	if err := f.platform.RemoveFunction("fn"); !errors.Is(err, ErrNoSuchFunction) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestTriggers(t *testing.T) {
	f := newFixture(t)
	f.register(t, Function{Name: "mailer", Handler: echoHandler})
	if err := f.platform.RegisterTrigger("ses", "alice@example.com", "mailer"); err != nil {
		t.Fatal(err)
	}
	if err := f.platform.RegisterTrigger("ses", "x", "ghost"); !errors.Is(err, ErrNoSuchFunction) {
		t.Fatalf("trigger to missing function: %v", err)
	}
	resp, _, err := f.platform.InvokeTrigger(f.ctx(), "ses", "alice@example.com", Event{Body: []byte("mail")})
	if err != nil || string(resp.Body) != "mail" {
		t.Fatalf("trigger invoke: %v %q", err, resp.Body)
	}
	if _, _, err := f.platform.InvokeTrigger(f.ctx(), "ses", "bob@example.com", Event{}); !errors.Is(err, ErrNoSuchFunction) {
		t.Fatalf("unknown trigger: %v", err)
	}
	// Removing the function removes its triggers.
	f.platform.RemoveFunction("mailer")
	if _, ok := f.platform.TriggerTarget("ses", "alice@example.com"); ok {
		t.Fatal("trigger survived function removal")
	}
}

func TestMeasurement(t *testing.T) {
	a := Function{Code: []byte("code-v1")}
	b := Function{Code: []byte("code-v2")}
	if a.Measurement() == b.Measurement() {
		t.Fatal("different code has identical measurement")
	}
	if a.Measurement() != a.Measurement() {
		t.Fatal("measurement not deterministic")
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	f := newFixture(t)
	boom := errors.New("boom")
	f.register(t, Function{Name: "fail", Handler: func(env *Env, ev Event) (Response, error) {
		return Response{Status: 500}, boom
	}})
	_, stats, err := f.platform.Invoke(f.ctx(), "fail", Event{})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	// Failed invocations are still billed.
	if stats.BilledTime == 0 || f.meter.Total(pricing.LambdaRequests) != 1 {
		t.Fatal("failed invocation not billed")
	}
}

func TestBillQuantumProperties(t *testing.T) {
	// Properties: billed >= run; billed - run < quantum (for positive
	// runs); billed is a positive quantum multiple.
	f := func(ms uint32) bool {
		run := time.Duration(ms%600_000) * time.Millisecond
		billed := billQuantum(run)
		if billed < run {
			return false
		}
		if run > 0 && billed-run >= pricing.BillingQuantum {
			return false
		}
		return billed > 0 && billed%pricing.BillingQuantum == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInvocationAccountingConsistency(t *testing.T) {
	// Property: for any declared compute, the metered GB-seconds equal
	// billed seconds times memory GB.
	f := newFixture(t)
	mems := []int{128, 256, 448, 1024}
	for i, mem := range mems {
		name := fmt.Sprintf("acct-%d", i)
		computeMs := 37 + i*113
		f.register(t, Function{Name: name, MemoryMB: mem, Handler: func(env *Env, ev Event) (Response, error) {
			env.Compute(time.Duration(computeMs) * time.Millisecond)
			return Response{Status: 200}, nil
		}})
		before := f.meter.Total(pricing.LambdaGBSeconds)
		_, stats, err := f.platform.Invoke(f.ctx(), name, Event{})
		if err != nil {
			t.Fatal(err)
		}
		metered := f.meter.Total(pricing.LambdaGBSeconds) - before
		want := stats.BilledTime.Seconds() * float64(mem) / 1024
		if math.Abs(metered-want) > 1e-9 || math.Abs(stats.GBSeconds-want) > 1e-9 {
			t.Fatalf("mem %d: metered %v, stats %v, want %v", mem, metered, stats.GBSeconds, want)
		}
	}
}

func TestConcurrencyLimit(t *testing.T) {
	f := newFixture(t)
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	f.register(t, Function{Name: "slowpoke", Handler: func(env *Env, ev Event) (Response, error) {
		started <- struct{}{}
		<-release
		return Response{Status: 200}, nil
	}})
	f.platform.SetConcurrencyLimit(2)

	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := f.platform.Invoke(f.ctx(), "slowpoke", Event{})
			done <- err
		}()
	}
	<-started
	<-started
	if got := f.platform.Concurrent(); got != 2 {
		t.Fatalf("concurrent = %d, want 2", got)
	}
	// The third invocation is throttled, not queued.
	if _, _, err := f.platform.Invoke(f.ctx(), "slowpoke", Event{}); !errors.Is(err, ErrConcurrencyLimit) {
		t.Fatalf("got %v, want ErrConcurrencyLimit", err)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Capacity is released afterwards.
	if _, _, err := f.platform.Invoke(f.ctx(), "slowpoke2", Event{}); !errors.Is(err, ErrNoSuchFunction) {
		t.Fatalf("unexpected error: %v", err)
	}
	f.register(t, Function{Name: "quick", Handler: echoHandler})
	if _, _, err := f.platform.Invoke(f.ctx(), "quick", Event{}); err != nil {
		t.Fatalf("post-release invoke: %v", err)
	}
	if got := f.platform.Concurrent(); got != 0 {
		t.Fatalf("concurrent after drain = %d", got)
	}
	// Non-positive restores the default.
	f.platform.SetConcurrencyLimit(0)
}
