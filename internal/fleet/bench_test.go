package fleet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/fleet/telemetry"
)

// BenchmarkFleet measures fleet simulation throughput end to end —
// profile partitioning, per-account cloud construction off the shared
// bundle, the per-account replay loop, and ordered aggregation — at two fleet
// sizes. Beyond ns/op it reports accounts/sec (how fast the engine
// chews through accounts) and ns/request (amortized cost of one
// simulated workload arrival), both gated in BENCH_cloudsim.json.
func BenchmarkFleet(b *testing.B) {
	for _, accounts := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("accounts=%d", accounts), func(b *testing.B) {
			cfg := Config{Accounts: accounts, Span: 10 * time.Minute}
			requests := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				requests = res.TotalRequests
			}
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(float64(accounts)/(perOp/1e9), "accounts/sec")
			b.ReportMetric(perOp/float64(requests), "ns/request")
		})
	}
}

// BenchmarkFleetTraced is BenchmarkFleet with head-sampled tracing on:
// every request takes a sampling decision, kept requests build span
// trees through TracedContext/SendTraced and fold them into the
// per-account columnar store at tick boundaries. The bench gate holds
// its ns/request within the margin of the untraced BenchmarkFleet —
// sampled tracing must stay cheap enough to leave on fleet-wide.
func BenchmarkFleetTraced(b *testing.B) {
	const accounts = 1000
	b.Run(fmt.Sprintf("accounts=%d", accounts), func(b *testing.B) {
		cfg := Config{Accounts: accounts, Span: 10 * time.Minute, Trace: true}
		requests := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			requests = res.TotalRequests
		}
		perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(accounts)/(perOp/1e9), "accounts/sec")
		b.ReportMetric(perOp/float64(requests), "ns/request")
	})
}

// BenchmarkFleetTelemetry is BenchmarkFleet with the control tower
// attached: per-account CloudWatch interception, series reduction at
// account completion, shard counters, and the Finalize merge. The
// bench gate holds its ns/request within the margin of the untelemetered
// BenchmarkFleet — the "near-zero-overhead observability" claim, priced.
func BenchmarkFleetTelemetry(b *testing.B) {
	const accounts = 1000
	b.Run(fmt.Sprintf("accounts=%d", accounts), func(b *testing.B) {
		requests := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh tower per iteration, as each diyctl run builds one
			// (a tower can also be reused: Finalize rebuilds its fold).
			cfg := Config{
				Accounts: accounts,
				Span:     10 * time.Minute,
				Tower:    telemetry.NewTower(telemetry.Options{}),
			}
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			requests = res.TotalRequests
		}
		perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(accounts)/(perOp/1e9), "accounts/sec")
		b.ReportMetric(perOp/float64(requests), "ns/request")
	})
}
