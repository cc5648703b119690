package logs

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

func logPlane(t *testing.T, s *Service, authorize bool) *plane.Plane {
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
	if s != nil { // nil: the same plane without logging
		p.Use(PlaneInterceptor(s, pricing.Default2017(), clock.NewVirtual()))
	}
	return p
}

func TestPlaneInterceptorEmitsEvents(t *testing.T) {
	s := New(clock.NewVirtual())
	p := logPlane(t, s, true)
	ctx := &sim.Context{Principal: "fn", App: "app", Cursor: sim.NewCursor(clock.Epoch)}

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

	evs := s.Events(PlaneGroup("s3"), time.Time{}, time.Time{})
	if len(evs) != 4 {
		t.Fatalf("emitted %d events, want 4", len(evs))
	}
	for _, e := range evs {
		if e.Stream != "s3:GetObject" {
			t.Fatalf("event stream = %q", e.Stream)
		}
		if e.Fields["principal"] != "fn" || e.Fields["app"] != "app" {
			t.Fatalf("event fields = %v", e.Fields)
		}
		// Each GET meters one S3 GET request at list price: $0.0004/1000
		// = 400 nanodollars.
		if e.Fields["cost_nanodollars"] != "400" {
			t.Fatalf("cost field = %q, want 400", e.Fields["cost_nanodollars"])
		}
		if e.Fields["latency_ms"] == "" {
			t.Fatalf("missing latency field: %v", e.Fields)
		}
		// Timestamps sit on the flow's simulated timeline.
		if e.Time.Before(clock.Epoch) || e.Time.After(ctx.Now()) {
			t.Fatalf("event time %v outside flow timeline", e.Time)
		}
	}
	if evs[3].Fields["outcome"] != "error" || evs[3].Fields["error"] == "" {
		t.Fatalf("failed call fields = %v", evs[3].Fields)
	}
	if evs[0].Fields["outcome"] != "ok" {
		t.Fatalf("ok call fields = %v", evs[0].Fields)
	}

	// The emitted events answer Insights queries.
	res, err := s.Query(PlaneGroup("s3"),
		`stats count(*) as n, sum(cost_nanodollars) as nanos by outcome | sort outcome`,
		time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value(0, "outcome") != "error" || res.Value(0, "n") != "1" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Value(1, "outcome") != "ok" || res.Value(1, "nanos") != "1200" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestPlaneInterceptorLogsDenials(t *testing.T) {
	s := New(clock.NewVirtual())
	p := logPlane(t, s, false) // no roles: denied
	ctx := &sim.Context{Principal: "nobody", Cursor: sim.NewCursor(clock.Epoch)}
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
	evs := s.Events(PlaneGroup("kms"), time.Time{}, time.Time{})
	if len(evs) != 1 {
		t.Fatalf("emitted %d events, want 1", len(evs))
	}
	if evs[0].Fields["outcome"] != "denied" {
		t.Fatalf("outcome = %q, want denied", evs[0].Fields["outcome"])
	}
	// Denied calls are billed on AWS: $0.03/10k = 3000 nanodollars.
	if evs[0].Fields["cost_nanodollars"] != "3000" {
		t.Fatalf("cost = %q, want 3000", evs[0].Fields["cost_nanodollars"])
	}
}

// Cursor-less flows fall back to the service clock so their events
// still land on the timeline.
func TestPlaneInterceptorClockFallback(t *testing.T) {
	s := New(clock.NewVirtual())
	clk := clock.NewVirtual()
	clk.Advance(42 * time.Minute)
	p := plane.New(nil, nil, nil)
	p.Use(PlaneInterceptor(s, pricing.Default2017(), clk))
	if err := p.Do(nil, &plane.Call{Service: "svc", Op: "Op"}, func(*plane.Request) error { return nil }); err != nil {
		t.Fatal(err)
	}
	evs := s.Events(PlaneGroup("svc"), time.Time{}, time.Time{})
	if len(evs) != 1 {
		t.Fatalf("emitted %d events, want 1", len(evs))
	}
	if want := clock.Epoch.Add(42 * time.Minute); !evs[0].Time.Equal(want) {
		t.Fatalf("event time = %v, want clock fallback %v", evs[0].Time, want)
	}
	// No cursor means no observable latency: the field must stay unset
	// rather than record a bogus zero.
	if _, ok := evs[0].Fields["latency_ms"]; ok {
		t.Fatalf("latency field on cursor-less flow: %v", evs[0].Fields)
	}
}

// TestInterceptorConcurrentPublishers is the -race gate for the
// single-lock publish path: concurrent flows build their events in
// stack buffers and append under the store lock while a reader scans
// the group, and no event is lost.
func TestInterceptorConcurrentPublishers(t *testing.T) {
	s := New(clock.NewVirtual())
	p := plane.New(nil, nil, nil)
	p.Use(PlaneInterceptor(s, pricing.Default2017(), clock.NewVirtual()))
	const goroutines, per = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := &sim.Context{Principal: "fn", Cursor: sim.NewCursor(clock.Epoch.Add(time.Duration(g) * time.Hour))}
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
				s.Events(PlaneGroup("svc"), time.Time{}, time.Time{})
			}
		}
	}()
	wg.Wait()
	close(done)
	evs := s.Events(PlaneGroup("svc"), time.Time{}, time.Time{})
	if len(evs) != goroutines*per {
		t.Fatalf("Events = %d after concurrent publication, want %d", len(evs), goroutines*per)
	}
	for i, e := range evs {
		if e.Fields["principal"] != "fn" || e.Fields["outcome"] != "ok" {
			t.Fatalf("event %d fields = %v", i, e.Fields)
		}
		if i > 0 && e.Time.Before(evs[i-1].Time) {
			t.Fatalf("event %d at %v precedes event %d at %v", i, e.Time, i-1, evs[i-1].Time)
		}
	}
	events := 0
	for _, g := range s.Inventory() {
		events += g.Events
	}
	if want := goroutines * per; events != want {
		t.Fatalf("inventory holds %d events, want %d", events, want)
	}
	if got := s.Groups(); len(got) != 1 || got[0] != PlaneGroup("svc") {
		t.Fatalf("Groups = %v, want one plane group", got)
	}
}
