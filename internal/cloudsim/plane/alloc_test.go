package plane_test

import (
	"testing"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/logs"
	"repro/internal/cloudsim/metrics"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/plane"
	"repro/internal/cloudsim/sim"
	"repro/internal/pricing"
)

// TestDoAllocs: on an untraced flow a plane call allocates nothing of
// its own, even with the metrics and logs interceptors installed and an
// s3-shaped call (latency, a resource in parts, a request fee) built on
// the caller's stack. The Request is the plane's spare.
func TestDoAllocs(t *testing.T) {
	iamSvc := iam.New()
	if err := iamSvc.PutRole(&iam.Role{
		Name: "fn",
		Policies: []iam.Policy{{
			Name:       "all",
			Statements: []iam.Statement{iam.AllowStatement([]string{"s3:*"}, []string{"bucket/b/*"})},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	clk, book := clock.NewVirtual(), pricing.Default2017()
	p := plane.New(iamSvc, pricing.NewMeter(), netsim.NewDefaultModel())
	p.Use(
		metrics.PlaneInterceptor(metrics.New(), book, clk),
		logs.PlaneInterceptor(logs.New(clk), book, clk),
	)
	ctx := &sim.Context{Principal: "fn", App: "app", Cursor: sim.NewCursor(t0), FunctionMemMB: 448}
	bucket, key := "b", "rooms/general.json"
	handler := plane.HandlerFunc(func(*plane.Request) error { return nil })
	got := testing.AllocsPerRun(100, func() {
		c := s3Call(bucket, key)
		if err := p.Do(ctx, &c, handler); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("untraced s3-shaped Do: %v allocs, want exactly 0", got)
	}
}

// s3Call builds a call the way the s3 service does for a 1 KB GetObject.
func s3Call(bucket, key string) plane.Call {
	return plane.Call{
		Service:  "s3",
		Op:       "s3:GetObject",
		Action:   "s3:GetObject",
		Resource: iam.Resource{"bucket/", bucket, "/", key},
		Latency:  plane.Latency{On: true, Hop: netsim.HopS3, MemoryCoupled: true, TransferBytes: 1024},
		Fee:      pricing.Usage{Kind: pricing.S3GetRequests, Quantity: 1},
	}
}
