package fleet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet/telemetry"
	"repro/internal/workload"
)

// fingerprint renders everything a Result promises to keep
// bit-identical across replays, in a canonical order.
func fingerprint(r *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fleet accounts=%d simulated=%d scale=%.3f seed=%d span=%v shards=%d\n",
		r.Accounts, r.Simulated, r.ScaleFactor, r.Seed, r.Span, r.Shards)
	fmt.Fprintf(&sb, "totals requests=%d cold=%d mix=%v note=%q\n",
		r.TotalRequests, r.TotalColdStarts, r.MixCounts, r.ScalingNote)
	for _, a := range r.PerAccount {
		fmt.Fprintf(&sb, "acct %06d %-8v requests=%d cold=%d monthly=%s\n",
			a.Index, a.Kind, a.Requests, a.ColdStarts, a.MonthlyCost)
	}
	for _, b := range r.GapBuckets {
		fmt.Fprintf(&sb, "gap %-12s n=%d cold=%d\n", b.Label, b.Requests, b.ColdStarts)
	}
	for _, p := range []float64{50, 99, 99.9} {
		fmt.Fprintf(&sb, "cost p%v=%s latency p%v=%v\n",
			p, r.CostPercentile(p), p, r.LatencyPercentile(p))
	}
	for _, l := range r.Latencies {
		fmt.Fprintf(&sb, "lat %d\n", l.Nanoseconds())
	}
	return sb.String()
}

// TestFleetDeterministicAcrossWorkers is the scheduler's contract: the
// full result — every per-account stat, every latency sample, every
// histogram cell — and the control tower's dashboards, trace rollup
// included, are bit-identical whether one worker drains all shards or
// many race over them.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{Accounts: 200, Span: 20 * time.Minute, Seed: 3, Trace: true}

	var prints []string
	for _, workers := range []int{1, 3, 8} {
		c := cfg
		c.Workers = workers
		c.Tower = telemetry.NewTower(telemetry.Options{})
		res, err := Run(c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		prints = append(prints, fingerprint(res)+c.Tower.RenderDashboard()+c.Tower.RenderTraceDashboard())
	}
	if !strings.Contains(prints[0], "Fleet trace rollup") {
		t.Fatalf("traced run rendered no trace rollup:\n%s", prints[0])
	}
	for i := 1; i < len(prints); i++ {
		if prints[i] != prints[0] {
			d := firstDiffLine(prints[0], prints[i])
			t.Fatalf("result diverges between worker counts 1 and %d:\n%s", []int{1, 3, 8}[i], d)
		}
	}
}

// TestTowerReuse runs two different fleets through one Tower: after
// the second run it must render exactly what a fresh tower renders for
// that run alone, since Finalize derives everything from its inputs.
func TestTowerReuse(t *testing.T) {
	first := Config{Accounts: 40, Span: 10 * time.Minute, Seed: 5, Trace: true}
	second := Config{Accounts: 60, Span: 15 * time.Minute, Seed: 9, Shards: 16, Trace: true}
	render := func(tw *telemetry.Tower) string {
		return fmt.Sprintf("%s%s%s%+v\n", tw.RenderDashboard(), tw.RenderTraceDashboard(), tw.RenderHostPhases(), tw.Progress())
	}
	run := func(cfg Config, tw *telemetry.Tower) {
		cfg.Tower = tw
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}

	reused := telemetry.NewTower(telemetry.Options{})
	run(first, reused)
	run(second, reused)
	fresh := telemetry.NewTower(telemetry.Options{})
	run(second, fresh)
	if got, want := render(reused), render(fresh); got != want {
		t.Fatalf("reused tower diverges from a fresh one:\n%s", firstDiffLine(want, got))
	}
}

// TestFleetReplayStable reruns the same config twice in-process.
func TestFleetReplayStable(t *testing.T) {
	cfg := Config{Accounts: 60, Span: 15 * time.Minute, Seed: 11}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := fingerprint(a), fingerprint(b); fa != fb {
		t.Fatalf("replay diverged:\n%s", firstDiffLine(fa, fb))
	}
}

// TestFleetErrorLowestIndex pins the error path: when several accounts
// fail, Run reports the lowest-indexed one, whichever worker drained
// its shard first.
func TestFleetErrorLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Run(Config{
			Accounts: 40, Shards: 8, Workers: workers, Span: 5 * time.Minute,
			Profile: func(base int64, index int) workload.AccountProfile {
				p := workload.Profile(base, index)
				if index == 7 || index == 23 {
					p.Kind = workload.NumKinds
				}
				return p
			},
		})
		if err == nil || !strings.Contains(err.Error(), "account 000007") {
			t.Fatalf("workers=%d: err = %v, want it to name account 000007", workers, err)
		}
	}
}

// TestFleetScalingReported pins the sampling contract: oversized
// fleets are strided down to MaxSimulated-or-fewer accounts and the
// scaling is reported, never silent.
func TestFleetScalingReported(t *testing.T) {
	res, err := Run(Config{Accounts: 5000, MaxSimulated: 500, Span: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.Simulated != 500 {
		t.Errorf("simulated %d accounts, want 500", res.Simulated)
	}
	if res.ScaleFactor != 10 {
		t.Errorf("scale factor %v, want 10", res.ScaleFactor)
	}
	if res.ScalingNote == "" {
		t.Error("sampling must set ScalingNote — scaling may never be silent")
	}
	if res.PerAccount[1].Index != 10 {
		t.Errorf("second sampled account has index %d, want 10 (stride sampling)", res.PerAccount[1].Index)
	}

	full, err := Run(Config{Accounts: 50, Span: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if full.ScalingNote != "" || full.ScaleFactor != 1 {
		t.Errorf("unsampled fleet reported scaling: note=%q factor=%v", full.ScalingNote, full.ScaleFactor)
	}
}

// TestFleetColdStartKnee checks the Figure 1 extension reproduces the
// warm-pool physics: requests arriving within the warm-container TTL
// (5 minutes) almost never cold-start; requests beyond it always do.
func TestFleetColdStartKnee(t *testing.T) {
	res, err := Run(Config{Accounts: 400, Span: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.GapBuckets {
		switch {
		case b.UpTo != 0 && b.UpTo <= 5*time.Minute && b.Requests > 0:
			if frac := float64(b.ColdStarts) / float64(b.Requests); frac > 0.10 {
				t.Errorf("bucket %s under the warm TTL is %.1f%% cold, want ≤10%%", b.Label, 100*frac)
			}
		case b.UpTo == 0 || b.UpTo > 10*time.Minute:
			if b.ColdStarts != b.Requests {
				t.Errorf("bucket %s beyond the warm TTL has %d/%d cold, want all cold",
					b.Label, b.ColdStarts, b.Requests)
			}
		}
	}
}

// firstDiffLine locates the first diverging line of two renderings.
func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  a: %q\n  b: %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line count differs: %d vs %d", len(al), len(bl))
}
