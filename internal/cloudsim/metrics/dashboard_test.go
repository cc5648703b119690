package metrics

import (
	"testing"
	"time"
)

// TestTopTable folds hand-published plane samples into per-(service,
// op) rows: requests, errors, denials, nearest-rank latency
// percentiles and summed cost, sorted by namespace, with namespaces
// that carry no plane.requests series left out.
func TestTopTable(t *testing.T) {
	s := New()
	call := func(ns string, sec int, latencyMs, costNanos float64, failed string) {
		at := t0.Add(time.Duration(sec) * time.Second)
		s.Record(ns, MetricPlaneRequests, at, 1)
		switch failed {
		case "error":
			s.Record(ns, MetricPlaneErrors, at, 1)
		case "denied":
			s.Record(ns, MetricPlaneDenials, at, 1)
		}
		s.Record(ns, MetricPlaneLatencyMs, at, latencyMs)
		s.Record(ns, MetricPlaneCostNanos, at, costNanos)
	}
	call("s3/s3:GetObject", 1, 40, 400, "")
	call("kms/kms:Decrypt", 2, 10, 3000, "")
	call("kms/kms:Decrypt", 3, 30, 3000, "error")
	call("s3/s3:GetObject", 4, 50, 400, "denied")
	call("kms/kms:Decrypt", 5, 20, 3000, "")
	// Neither the account gauge nor a function's platform series is a
	// plane row.
	s.Record(AccountNamespace, MetricAccountCostNanos, t0.Add(5*time.Second), 9800)
	s.Record("proto-chat", MetricLambdaRunMs, t0.Add(5*time.Second), 133)

	var zero time.Time
	want := []OpStat{
		{Namespace: "kms/kms:Decrypt", Requests: 3, Errors: 1, P50Ms: 20, P99Ms: 30, CostNanos: 9000},
		{Namespace: "s3/s3:GetObject", Requests: 2, Denials: 1, P50Ms: 40, P99Ms: 50, CostNanos: 800},
	}
	got := s.TopTable(zero, zero)
	if len(got) != len(want) {
		t.Fatalf("rows = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// The window [t0+3s, t0+4s] keeps one call per namespace.
	got = s.TopTable(t0.Add(3*time.Second), t0.Add(4*time.Second))
	want = []OpStat{
		{Namespace: "kms/kms:Decrypt", Requests: 1, Errors: 1, P50Ms: 30, P99Ms: 30, CostNanos: 3000},
		{Namespace: "s3/s3:GetObject", Requests: 1, Denials: 1, P50Ms: 50, P99Ms: 50, CostNanos: 400},
	}
	if len(got) != len(want) {
		t.Fatalf("windowed rows = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("windowed row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
