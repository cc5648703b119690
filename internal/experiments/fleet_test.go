package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/telemetry"
)

// checkFleetConfig is the scripts/check.sh / golden configuration:
// 1,000 accounts over a 30-minute span.
func checkFleetConfig() fleet.Config {
	return fleet.Config{Accounts: 1000, Span: 30 * time.Minute, Seed: 1}
}

// TestLedgerParityFleet pins the 1,000-account fleet bit-for-bit: the
// rendered summary, every per-account stat line, and the raw
// nanosecond/nanodollar fingerprint. check.sh runs this golden under
// GOMAXPROCS=1 and GOMAXPROCS=NumCPU — both must match the same file,
// which is the enforced form of the "worker count never changes a
// byte" contract.
func TestLedgerParityFleet(t *testing.T) {
	rep, err := RunFleet(checkFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(rep.Render())
	sb.WriteString(rep.RawFingerprint())
	sb.WriteString(rep.RenderAccounts())
	checkGolden(t, "ledger_fleet.golden", sb.String())
}

// TestLedgerParityFleetTelemetry reruns the same fleet with the
// control tower attached and diffs against the *same* golden file —
// the enforced form of "telemetry on == telemetry off". The tower
// turns on per-account CloudWatch interception, shard counters, and
// cross-account rollups; none of it may move a single byte of the
// replay-identity output. (check.sh's `-run TestLedgerParityFleet`
// prefix match runs this at GOMAXPROCS=1 and NumCPU too.)
func TestLedgerParityFleetTelemetry(t *testing.T) {
	cfg := checkFleetConfig()
	tower := telemetry.NewTower(telemetry.Options{})
	cfg.Tower = tower
	rep, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(rep.Render())
	sb.WriteString(rep.RawFingerprint())
	sb.WriteString(rep.RenderAccounts())
	checkGolden(t, "ledger_fleet.golden", sb.String())

	// Sanity: the tower actually observed the run.
	p := tower.Progress()
	if p.AccountsDone != rep.Result.Simulated || p.Requests != rep.Result.TotalRequests {
		t.Fatalf("tower progress %+v does not match result (simulated=%d requests=%d)",
			p, rep.Result.Simulated, rep.Result.TotalRequests)
	}
	if p.Requests <= 0 || p.ShardsDone <= 0 {
		t.Fatalf("tower saw no engine activity: %+v", p)
	}
	dash := tower.RenderDashboard()
	for _, want := range []string{"Fleet control tower", "lambda/", "account span spend", "top 5 accounts"} {
		if !strings.Contains(dash, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, dash)
		}
	}

	// With no traced accounts, the trace dashboard renders empty.
	if td := tower.RenderTraceDashboard(); td != "" {
		t.Fatalf("untraced run rendered a trace dashboard:\n%s", td)
	}
}

// TestLedgerParityFleetTraced reruns the same fleet with head-sampled
// tracing on (plus the tower, so the sampled traces roll up) and diffs
// against the *same* golden file — the enforced form of "tracing on ==
// tracing off". Traced requests run under TracedContext and the chat
// flow switches to SendTraced; none of it may move a latency sample or
// a nanodollar. (check.sh's `-run TestLedgerParityFleet` prefix match
// runs this at GOMAXPROCS=1 and NumCPU too, so the sampled kept-sets
// are also pinned independent of worker count.)
func TestLedgerParityFleetTraced(t *testing.T) {
	cfg := checkFleetConfig()
	cfg.Trace = true
	tower := telemetry.NewTower(telemetry.Options{})
	cfg.Tower = tower
	rep, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(rep.Render())
	sb.WriteString(rep.RawFingerprint())
	sb.WriteString(rep.RenderAccounts())
	checkGolden(t, "ledger_fleet.golden", sb.String())

	// The rollup actually saw sampled traces.
	dash := tower.RenderTraceDashboard()
	for _, want := range []string{"Fleet trace rollup", "sampling:", "service map", "critical path"} {
		if !strings.Contains(dash, want) {
			t.Fatalf("trace dashboard missing %q:\n%s", want, dash)
		}
	}
}
