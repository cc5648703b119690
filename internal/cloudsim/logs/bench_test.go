// Benchmarks for the log plane's hot paths: event ingestion through
// the plane interceptor (the per-call overhead every service API pays
// when logging is on) and a full Insights pipeline scan (filter +
// parse + stats) over a populated group. scripts/bench.sh snapshots
// these numbers into BENCH_cloudsim.json.
package logs_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/logs"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/plane"
	"repro/internal/cloudsim/sim"
	"repro/internal/pricing"
)

// BenchmarkLogsIngest measures one plane.Do with the log interceptor
// installed — the marginal cost of the evidence trail per API call.
func BenchmarkLogsIngest(b *testing.B) {
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
	p.Use(logs.PlaneInterceptor(logs.New(clock.NewVirtual()), pricing.Default2017(), clock.NewVirtual()))
	ctx := &sim.Context{Principal: "fn", App: "app", Cursor: sim.NewCursor(clock.Epoch)}
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
}

// BenchmarkInsightsScan measures the Table 3 Insights pipeline —
// filter, parse, percentile stats — over 10k Lambda REPORT lines.
func BenchmarkInsightsScan(b *testing.B) {
	s := logs.New(clock.NewVirtual())
	for i := 0; i < 10_000; i++ {
		s.PutEvents("lambda/fn", "2017/06/01/[$LATEST]container-000001", logs.Event{
			Time: clock.Epoch.Add(time.Duration(i) * time.Second),
			Message: fmt.Sprintf(
				"REPORT RequestId: req-%06d\tDuration: %d.50 ms\tBilled Duration: %d ms\tMemory Size: 448 MB\tMax Memory Used: %d MB",
				i, 100+i%100, 200+100*(i%2), 40+i%12),
		})
	}
	const q = `filter @message like "REPORT" | parse @message "Billed Duration: * ms" as billed_ms | stats count(*) as n, pct(billed_ms, 50) as med`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Query("lambda/fn", q, time.Time{}, time.Time{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Value(0, "n") != "10000" {
			b.Fatalf("scan returned %q rows", res.Value(0, "n"))
		}
	}
}
