package telemetry_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/metrics"
	"repro/internal/fleet/telemetry"
)

// fixtureAccounts is a small synthetic fleet: two app kinds spread
// over two service namespaces, with one account (index 3) carrying a
// deliberately identical monthly cost to index 4 to exercise the
// top-N tie break.
const fixtureAccounts = 6

// observeFixtureAccount builds account i's CloudWatch store and
// reduces it through the worker-side hook, as the fleet engine does
// when the account finishes.
func observeFixtureAccount(tw *telemetry.Tower, i int) *telemetry.AccountRecord {
	svc := metrics.New()
	at := clock.Epoch.Add(time.Minute)
	ns := "lambda/Invoke"
	kind := "blog"
	if i%2 == 1 {
		ns = "s3/PutObject"
		kind = "drive"
	}
	svc.Record(ns, metrics.MetricPlaneRequests, at, float64(10+i))
	svc.Record(ns, metrics.MetricPlaneErrors, at, float64(i%2))
	svc.Record(ns, metrics.MetricPlaneDenials, at, 0)
	svc.Record(ns, metrics.MetricPlaneLatencyMs, at, float64(3*(10+i)))
	svc.Record(ns, metrics.MetricPlaneCostNanos, at, float64(1_000_000*(i+1)))
	svc.Record(metrics.AccountNamespace, metrics.MetricAccountCostNanos, at, float64(500_000*(i+1)))
	monthly := int64(1_000_000_000) * int64(i+1)
	if i == 3 {
		monthly = 5_000_000_000 // ties with index 4
	}
	return tw.ObserveAccount(svc, nil, nil, telemetry.AccountObservation{
		Index: i, Kind: kind,
		Requests: 10 + i, ColdStarts: i % 3,
		MonthlyCostNanos: monthly,
	})
}

// runFixture drives the fixture fleet through a tower: Begin, every
// account's record in account order, then Finalize with two shards'
// request counts.
func runFixture(phases telemetry.PhaseTimings) *telemetry.Tower {
	tw := telemetry.NewTower(telemetry.Options{TopN: 3})
	tw.Begin(fixtureAccounts, 2, 42, time.Hour)
	records := make([]*telemetry.AccountRecord, fixtureAccounts)
	for i := range records {
		records[i] = observeFixtureAccount(tw, i)
	}
	tw.Finalize(phases, records, []int{36, 39})
	return tw
}

// TestDashboardContent pins what the dashboard folds out of the
// records: the header, the shard spread, the per-service sums across
// accounts, the spend distribution and the top-N table with its tie
// break.
func TestDashboardContent(t *testing.T) {
	a := runFixture(telemetry.PhaseTimings{}).RenderDashboard()
	for _, want := range []string{
		"Fleet control tower — 6 accounts, 2 shards, seed 42, span 1h0m0s\n",
		"shards: 75 events, 75 requests, 6 cold starts\n",
		"  events/shard min 36  p50 36  max 39\n",
		// Even accounts (0,2,4) hit lambda/Invoke with 10+i requests,
		// 3 ms each; odd accounts (1,3,5) hit s3 with one error each.
		"lambda/Invoke                        36        0        0       3.000     $0.009000\n",
		"s3/PutObject                         39        3        0       3.000     $0.012000\n",
		"fleet totals: 3 errors, 0 denials\n",
		"account span spend: p50 $0.001500  p99 $0.003000  p99.9 $0.003000\n",
		"top 3 accounts by monthly cost:\n",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("dashboard missing %q:\n%s", want, a)
		}
	}
	// The tie at $5/mo (indices 3 and 4) must resolve by fleet index
	// ascending: #000003 before #000004, after the $6/mo leader.
	i5 := strings.Index(a, "#000005")
	i3 := strings.Index(a, "#000003")
	i4 := strings.Index(a, "#000004")
	if i5 < 0 || i3 < 0 || i4 < 0 || !(i5 < i3 && i3 < i4) {
		t.Errorf("top-N order wrong (want #000005 < #000003 < #000004):\n%s", a)
	}
}

// TestFinalizeIdempotent proves Finalize derives the dashboard from its
// inputs alone: folding the same run twice cannot double a sum.
func TestFinalizeIdempotent(t *testing.T) {
	tw := telemetry.NewTower(telemetry.Options{TopN: 3})
	tw.Begin(fixtureAccounts, 2, 42, time.Hour)
	records := make([]*telemetry.AccountRecord, fixtureAccounts)
	for i := range records {
		records[i] = observeFixtureAccount(tw, i)
	}
	tw.Finalize(telemetry.PhaseTimings{}, records, []int{36, 39})
	before := tw.RenderDashboard()
	tw.Finalize(telemetry.PhaseTimings{}, records, []int{36, 39})
	if after := tw.RenderDashboard(); after != before {
		t.Fatalf("second Finalize changed the dashboard:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
}

// TestProgressCounters checks the live snapshot the -watch goroutine
// polls: running totals across ObserveAccount/ObserveShard, reset by
// the next Begin.
func TestProgressCounters(t *testing.T) {
	tw := telemetry.NewTower(telemetry.Options{})
	tw.Begin(4, 2, 7, time.Hour)
	p := tw.Progress()
	if p.AccountsDone != 0 || p.AccountsTotal != 4 || p.ShardsTotal != 2 {
		t.Fatalf("fresh progress = %+v", p)
	}
	observeFixtureAccount(tw, 0)
	observeFixtureAccount(tw, 1)
	tw.ObserveShard()
	p = tw.Progress()
	if p.AccountsDone != 2 || p.ShardsDone != 1 {
		t.Fatalf("mid-run progress = %+v", p)
	}
	if want := (10 + 0) + (10 + 1); p.Requests != want {
		t.Fatalf("progress requests = %d, want %d", p.Requests, want)
	}
	if want := 0 + 1; p.ColdStarts != want {
		t.Fatalf("progress cold starts = %d, want %d", p.ColdStarts, want)
	}
	tw.Begin(3, 1, 7, time.Hour)
	if p := tw.Progress(); p != (telemetry.Progress{AccountsTotal: 3, ShardsTotal: 1}) {
		t.Fatalf("progress after a second Begin = %+v, want only the new totals", p)
	}
}

// TestHostPhasesZeroWithoutClock pins the determinism contract's
// visible edge: with no injected host clock every phase reads zero and
// the renderer says so instead of printing noise timings.
func TestHostPhasesZeroWithoutClock(t *testing.T) {
	got := runFixture(telemetry.PhaseTimings{}).RenderHostPhases()
	if !strings.Contains(got, "no host clock injected") {
		t.Fatalf("host phases without a clock = %q", got)
	}
	got = runFixture(telemetry.PhaseTimings{ProfilesNs: 1e6, DrainNs: 2e6, AggregateNs: 3e6}).RenderHostPhases()
	for _, want := range []string{"profiles", "drain", "aggregate", "per-account split"} {
		if !strings.Contains(got, want) {
			t.Errorf("host phases missing %q:\n%s", want, got)
		}
	}
}
