package metrics

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/plane"
	"repro/internal/cloudsim/sim"
	"repro/internal/pricing"
)

func obsPlane(t *testing.T, s *Service, authorize bool) *plane.Plane {
	t.Helper()
	iamSvc := iam.New()
	if authorize {
		err := iamSvc.PutRole(&iam.Role{
			Name: "fn",
			Policies: []iam.Policy{{
				Name:       "all",
				Statements: []iam.Statement{iam.AllowStatement([]string{"*"}, []string{"*"})},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	p := plane.New(iamSvc, pricing.NewMeter(), netsim.NewDefaultModel())
	p.Use(PlaneInterceptor(s, pricing.Default2017(), clock.NewVirtual()))
	return p
}

func TestPlaneInterceptorPublishesRED(t *testing.T) {
	s := New()
	p := obsPlane(t, s, true)
	ctx := &sim.Context{Principal: "fn", App: "app", Cursor: sim.NewCursor(t0)}

	call := &plane.Call{
		Service:  "s3",
		Op:       "s3:GetObject",
		Action:   "s3:GetObject",
		Resource: iam.Resource{"bucket/x"},
		Latency:  plane.Latency{On: true, Hop: netsim.HopS3},
		Fee:      pricing.Usage{Kind: pricing.S3GetRequests, Quantity: 1},
	}
	for i := 0; i < 3; i++ {
		if err := p.Do(ctx, call, func(*plane.Request) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("s3: no such key")
	if err := p.Do(ctx, call, func(*plane.Request) error { return boom }); !errors.Is(err, boom) {
		t.Fatal(err)
	}

	const ns = "s3/s3:GetObject"
	var zero time.Time
	if got := s.Count(ns, MetricPlaneRequests, zero, zero); got != 4 {
		t.Errorf("requests = %d, want 4 (errors count too)", got)
	}
	if got := s.Sum(ns, MetricPlaneErrors, zero, zero); got != 1 {
		t.Errorf("errors = %v, want 1", got)
	}
	if got := s.Sum(ns, MetricPlaneDenials, zero, zero); got != 0 {
		t.Errorf("denials = %v, want 0", got)
	}
	if got := s.Count(ns, MetricPlaneLatencyMs, zero, zero); got != 4 {
		t.Errorf("latency samples = %d, want 4", got)
	}
	if got := s.Min(ns, MetricPlaneLatencyMs, zero, zero); got <= 0 {
		t.Errorf("min latency = %v ms, want > 0", got)
	}
	// Each GET meters one S3 GET request: $0.0004/1000 = 400 nano.
	if got := s.Sum(ns, MetricPlaneCostNanos, zero, zero); got != 4*400 {
		t.Errorf("cost = %v nanodollars, want 1600", got)
	}
	// The account gauge is cumulative: last sample equals the total.
	if got := s.Max(AccountNamespace, MetricAccountCostNanos, zero, zero); got != 4*400 {
		t.Errorf("account gauge max = %v, want 1600", got)
	}
	// Sample timestamps sit at the post-call cursor instants, inside
	// the flow's simulated timeline.
	if got := s.Count(ns, MetricPlaneRequests, t0.Add(time.Nanosecond), ctx.Now()); got != 4 {
		t.Errorf("samples outside the flow's timeline: %d in-window, want 4", got)
	}
}

func TestPlaneInterceptorCountsDenials(t *testing.T) {
	s := New()
	p := obsPlane(t, s, false) // no roles: denied
	ctx := &sim.Context{Principal: "nobody", Cursor: sim.NewCursor(t0)}
	err := p.Do(ctx, &plane.Call{
		Service:  "kms",
		Op:       "kms:Decrypt",
		Action:   "kms:Decrypt",
		Resource: iam.Resource{"key/k"},
		Fee:      pricing.Usage{Kind: pricing.KMSRequests, Quantity: 1},
	}, func(*plane.Request) error {
		t.Error("handler ran on a denied call")
		return nil
	})
	if !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
	const ns = "kms/kms:Decrypt"
	var zero time.Time
	if got := s.Sum(ns, MetricPlaneDenials, zero, zero); got != 1 {
		t.Errorf("denials = %v, want 1", got)
	}
	if got := s.Sum(ns, MetricPlaneErrors, zero, zero); got != 0 {
		t.Errorf("errors = %v, want 0 (denials are their own series)", got)
	}
	// Denied calls are billed on AWS, so the cost series sees the fee:
	// $0.03/10k = 3000 nanodollars.
	if got := s.Sum(ns, MetricPlaneCostNanos, zero, zero); got != 3000 {
		t.Errorf("denied-call cost = %v nanodollars, want 3000", got)
	}
}

// Cursor-less flows fall back to the service clock so their samples
// still land somewhere alarms can see.
func TestPlaneInterceptorClockFallback(t *testing.T) {
	s := New()
	clk := clock.NewVirtual()
	clk.Advance(42 * time.Minute)
	p := plane.New(nil, nil, nil)
	p.Use(PlaneInterceptor(s, pricing.Default2017(), clk))
	if err := p.Do(nil, &plane.Call{Service: "svc", Op: "Op"}, func(*plane.Request) error { return nil }); err != nil {
		t.Fatal(err)
	}
	at := clock.Epoch.Add(42 * time.Minute)
	if got := s.Count("svc/Op", MetricPlaneRequests, at, at); got != 1 {
		t.Errorf("fallback-timestamped sample not found at %v", at)
	}
	// No cursor means no observable latency: the series must stay
	// empty rather than record a bogus zero.
	if got := s.Count("svc/Op", MetricPlaneLatencyMs, time.Time{}, time.Time{}); got != 0 {
		t.Errorf("latency samples on a cursor-less flow = %d, want 0", got)
	}
}

// TestInterceptorConcurrentPublishers drives many flows through one
// interceptor concurrently while a reader queries the store, checking
// the final counts. Run under -race this is also the data-race gate
// for the direct-insert publication path.
func TestInterceptorConcurrentPublishers(t *testing.T) {
	s := New()
	p := plane.New(nil, nil, nil)
	p.Use(PlaneInterceptor(s, pricing.Default2017(), clock.NewVirtual()))
	const goroutines, per = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := &sim.Context{Cursor: sim.NewCursor(t0.Add(time.Duration(g) * time.Hour))}
			call := &plane.Call{Service: "svc", Op: "op"}
			for i := 0; i < per; i++ {
				ctx.Cursor.Advance(time.Millisecond)
				if err := p.Do(ctx, call, func(*plane.Request) error { return nil }); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				s.SeriesCount()
				s.Count("svc/op", MetricPlaneRequests, time.Time{}, time.Time{})
			}
		}
	}()
	wg.Wait()
	close(done)
	var zero time.Time
	if got := s.Count("svc/op", MetricPlaneRequests, zero, zero); got != goroutines*per {
		t.Fatalf("Count = %d after concurrent publication, want %d", got, goroutines*per)
	}
	if got, want := s.SelfStats().Samples, int64(goroutines*per*4); got != want {
		t.Fatalf("SelfStats().Samples = %d, want %d (requests, latency, cost, account gauge per call)", got, want)
	}
}

func TestServiceUsagePricing(t *testing.T) {
	s := New()
	for i := 0; i < 12; i++ {
		s.Record("ns", MetricPlaneRequests, t0.Add(time.Duration(i)*time.Minute), 1)
	}
	s.Record("ns", MetricPlaneLatencyMs, t0, 5)
	if _, err := s.PutAlarm(BudgetAlarm("b", pricing.FromDollars(1), time.Hour), t0, nil); err != nil {
		t.Fatal(err)
	}

	us := s.Usage()
	if len(us) != 2 {
		t.Fatalf("usage records = %d", len(us))
	}
	book := pricing.Default2017()
	var list pricing.Money
	for _, u := range us {
		list += book.ListPrice(u)
	}
	// 2 series × $0.30 + 1 alarm × $0.10 at list price.
	if want := pricing.FromDollars(0.70); list != want {
		t.Errorf("list price = %v, want %v", list, want)
	}

	// Through the bill engine the 10/10 free tier eats everything.
	m := pricing.NewMeter()
	for _, u := range us {
		m.Add(u)
	}
	bill := pricing.Compute(book, m)
	if got := bill.TotalOf(pricing.CWMetricMonths, pricing.CWAlarmMonths); got != 0 {
		t.Errorf("billed = %v, want $0 inside the free tier", got)
	}

	// Beyond the free tier: 25 metrics and 12 alarms bill the excess
	// 15 × $0.30 + 2 × $0.10 = $4.70.
	m2 := pricing.NewMeter()
	m2.Add(pricing.Usage{Kind: pricing.CWMetricMonths, Quantity: 25})
	m2.Add(pricing.Usage{Kind: pricing.CWAlarmMonths, Quantity: 12})
	if got, want := pricing.Compute(book, m2).TotalOf(pricing.CWMetricMonths, pricing.CWAlarmMonths), pricing.FromDollars(4.70); got != want {
		t.Errorf("beyond-free-tier bill = %v, want %v", got, want)
	}
}
