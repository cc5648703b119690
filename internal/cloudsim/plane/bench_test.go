// Benchmarks for the request-plane hot path: one plane.Do with no
// latency model engaged, under growing interceptor chains. The
// "metrics" case installs the real CloudWatch-sim interceptor, so the
// delta against "none" is the all-in cost of auto-published RED+cost
// series per call. The "s3" case is a call as the fleet makes it: the
// s3 service's descriptor built on the stack per call, with latency
// (memory-coupled, 1 KB transfer), a resource in parts and the request
// fee, under the metrics interceptor. scripts/bench.sh snapshots these
// numbers into BENCH_cloudsim.json.
package plane_test

import (
	"testing"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/metrics"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/plane"
	"repro/internal/cloudsim/sim"
	"repro/internal/pricing"
)

// benchPlane builds a plane with an allow-all role for "fn" and the
// given interceptor chain.
func benchPlane(b *testing.B, extra []plane.Interceptor) *plane.Plane {
	b.Helper()
	iamSvc := iam.New()
	err := iamSvc.PutRole(&iam.Role{
		Name: "fn",
		Policies: []iam.Policy{{
			Name:       "all",
			Statements: []iam.Statement{iam.AllowStatement([]string{"*"}, []string{"*"})},
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	p := plane.New(iamSvc, pricing.NewMeter(), netsim.NewDefaultModel())
	p.Use(extra...)
	return p
}

// passthrough is an interceptor that adds one frame and nothing else —
// the floor cost of lengthening the chain.
func passthrough(next plane.HandlerFunc) plane.HandlerFunc {
	return func(r *plane.Request) error { return next(r) }
}

func BenchmarkDoInterceptors(b *testing.B) {
	cases := []struct {
		name  string
		chain func() []plane.Interceptor
	}{
		{"none", func() []plane.Interceptor { return nil }},
		{"one", func() []plane.Interceptor {
			return []plane.Interceptor{passthrough}
		}},
		{"two", func() []plane.Interceptor {
			return []plane.Interceptor{passthrough, passthrough}
		}},
		{"metrics", func() []plane.Interceptor {
			return []plane.Interceptor{metrics.PlaneInterceptor(
				metrics.New(), pricing.Default2017(), clock.NewVirtual())}
		}},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			p := benchPlane(b, bc.chain())
			ctx := &sim.Context{Principal: "fn", App: "app", Cursor: sim.NewCursor(t0)}
			// No Latency on the call: the sleep model would dominate
			// and the pipeline overhead is what is being measured.
			call := &plane.Call{
				Service:  "s3",
				Op:       "s3:GetObject",
				Action:   "s3:GetObject",
				Resource: iam.Resource{"bucket/x"},
				Fee:      pricing.Usage{Kind: pricing.S3GetRequests, Quantity: 1},
			}
			handler := func(*plane.Request) error { return nil }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Do(ctx, call, handler); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	benchS3Call(b)
}

// benchS3Call runs the "s3" case: an s3-shaped call per iteration on a
// function's untraced flow, under the metrics interceptor.
func benchS3Call(b *testing.B) {
	b.Run("s3", func(b *testing.B) {
		p := benchPlane(b, []plane.Interceptor{metrics.PlaneInterceptor(
			metrics.New(), pricing.Default2017(), clock.NewVirtual())})
		ctx := &sim.Context{Principal: "fn", App: "app", Cursor: sim.NewCursor(t0), FunctionMemMB: 448}
		bucket, key := "b", "rooms/general.json"
		handler := func(*plane.Request) error { return nil }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := s3Call(bucket, key)
			if err := p.Do(ctx, &c, handler); err != nil {
				b.Fatal(err)
			}
		}
	})
}
