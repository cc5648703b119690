package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/chat"
	"repro/internal/cloudsim/metrics"
	"repro/internal/core"
	"repro/internal/pricing"
)

func dollars(d float64) pricing.Money { return pricing.FromDollars(d) }

func TestTable1MatchesPaper(t *testing.T) {
	t1, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if got := t1.Transfer.RoundCents(); got != dollars(0.09) {
		t.Errorf("transfer = %v, paper $0.09", got)
	}
	if got := t1.Storage.RoundCents(); got != dollars(0.17) {
		t.Errorf("storage = %v, paper $0.17", got)
	}
	if got := t1.Compute.RoundCents(); got != dollars(4.32) {
		t.Errorf("compute = %v, paper $4.32", got)
	}
	if got := t1.Total.RoundCents(); got != dollars(4.58) {
		t.Errorf("total = %v, paper $4.58", got)
	}
	if t1.ReplicatedTotal <= t1.Total {
		t.Error("HA total not larger than single-region total")
	}
	if !strings.Contains(t1.Render(), "$4.58") {
		t.Error("render missing total")
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	want := map[string]struct {
		compute, storXfer, total pricing.Money
	}{
		"Group Chat":         {dollars(0.00), dollars(0.14), dollars(0.14)},
		"Email":              {dollars(0.00), dollars(0.26), dollars(0.26)},
		"File Transfer":      {dollars(0.00), dollars(0.14), dollars(0.14)},
		"IoT Controller":     {dollars(0.00), dollars(0.12), dollars(0.12)},
		"Video Conferencing": {dollars(0.01), dollars(0.83), dollars(0.84)},
	}
	rows := RunTable2()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		w, ok := want[r.Profile.Application]
		if !ok {
			t.Errorf("unexpected row %q", r.Profile.Application)
			continue
		}
		if got := r.ComputeCost.RoundCents(); got != w.compute {
			t.Errorf("%s compute = %v, paper %v", r.Profile.Application, got, w.compute)
		}
		if got := r.StorageTransferCost.RoundCents(); got != w.storXfer {
			t.Errorf("%s storage+transfer = %v, paper %v", r.Profile.Application, got, w.storXfer)
		}
		if got := r.Total.RoundCents(); got != w.total {
			t.Errorf("%s total = %v, paper %v", r.Profile.Application, got, w.total)
		}
	}
	rendered := RenderTable2(rows)
	for app := range want {
		if !strings.Contains(rendered, app) {
			t.Errorf("render missing %q", app)
		}
	}
}

func TestTable2FullAccountingOrdering(t *testing.T) {
	rows := RunTable2FullAccounting()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FullTotal < r.Total {
			t.Errorf("%s full total below paper-convention total", r.Profile.Application)
		}
		// Even with full accounting, every DIY service stays far below
		// the $4.58 strawman — the paper's conclusion survives the
		// omitted fees.
		if r.Profile.Provider == "Lambda" && r.FullTotal.Dollars() > 1.0 {
			t.Errorf("%s full total %v exceeds $1", r.Profile.Application, r.FullTotal)
		}
	}
	if !strings.Contains(RenderFullAccounting(rows), "Req. fees") {
		t.Error("full accounting render incomplete")
	}
}

func TestTable3MatchesPaperShape(t *testing.T) {
	t3, _, err := RunTable3(Table3Config{Sends: 200})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: billed 200 ms, run 134 ms, E2E 211 ms, 448 MB alloc,
	// 51 MB peak. Medians must land within tight bands.
	if t3.MedBilled != 200*time.Millisecond {
		t.Errorf("median billed = %v, paper 200ms", t3.MedBilled)
	}
	if t3.MedRun < 120*time.Millisecond || t3.MedRun > 150*time.Millisecond {
		t.Errorf("median run = %v, paper 134ms", t3.MedRun)
	}
	if t3.MedE2E < 190*time.Millisecond || t3.MedE2E > 235*time.Millisecond {
		t.Errorf("median E2E = %v, paper 211ms", t3.MedE2E)
	}
	if t3.AllocatedMB != 448 {
		t.Errorf("allocated = %d, paper 448", t3.AllocatedMB)
	}
	if t3.PeakMemoryMB < 45 || t3.PeakMemoryMB > 60 {
		t.Errorf("peak memory = %d MB, paper 51", t3.PeakMemoryMB)
	}
	// Run must be strictly below billed (the quantum gap).
	if t3.MedRun >= t3.MedBilled {
		t.Error("run >= billed")
	}
	// Marginal cost per 100k requests: $0.146 of GB-seconds + $0.02 of
	// request fees ≈ $0.17 (the paper prints $0.014 — a 10x slip; see
	// EXPERIMENTS.md).
	if c := t3.CostPer100K.Dollars(); c < 0.10 || c > 0.25 {
		t.Errorf("cost per 100k = %v, want ≈$0.17", t3.CostPer100K)
	}
	if !strings.Contains(t3.Render(), "Med. Lambda Time Billed") {
		t.Error("render incomplete")
	}
}

func TestFigure1InvariantsHold(t *testing.T) {
	tr, err := RunFigure1()
	if err != nil {
		t.Fatal(err)
	}
	if !tr.OK() {
		t.Fatalf("invariants failed: %+v", tr)
	}
	if len(tr.Steps) < 5 {
		t.Fatalf("trace too short: %v", tr.Steps)
	}
	if !strings.Contains(tr.Render(), "invariants hold: true") {
		t.Error("render incomplete")
	}
}

func TestClaims(t *testing.T) {
	c, err := RunClaims()
	if err != nil {
		t.Fatal(err)
	}
	// Who wins and by what factor: DIY email is >15x cheaper than one
	// always-on VM and >30x cheaper than the 2-region HA config the
	// abstract compares against.
	if c.SavingsVsSingleEC2 < 15 {
		t.Errorf("savings vs single EC2 = %.1fx, want > 15x", c.SavingsVsSingleEC2)
	}
	if c.SavingsVsHAEC2 < 30 {
		t.Errorf("savings vs HA EC2 = %.1fx, want > 30x", c.SavingsVsHAEC2)
	}
	if got := c.HourLongHDCall.RoundCents(); got != dollars(0.11) {
		t.Errorf("hour-long HD call = %v, paper $0.11", got)
	}
	// "compute cost ... remains free until roughly 33,000 emails ...
	// daily".
	if c.EmailFreeCrossover < 30_000 || c.EmailFreeCrossover > 36_000 {
		t.Errorf("email crossover = %.0f/day, paper ~33,000", c.EmailFreeCrossover)
	}
	if !c.ChatFreeAt2000PerDay {
		t.Error("chat at 2000/day should be compute-free")
	}
	// §6.2: "Users can send over 25,000 messages per day without
	// incurring any compute cost."
	if c.ChatPrototypeFreeCrossover < 25_000 {
		t.Errorf("prototype crossover %.0f/day, paper claims > 25,000", c.ChatPrototypeFreeCrossover)
	}
	if !strings.Contains(c.Render(), "50x") {
		t.Error("render incomplete")
	}
}

func TestMemorySweepShape(t *testing.T) {
	points, err := RunMemorySweep(40)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 4 {
		t.Fatalf("points = %d", len(points))
	}
	byMem := make(map[int]MemoryPoint)
	for _, p := range points {
		byMem[p.MemoryMB] = p
	}
	// The paper's observation: 128 MB is much slower than 448 MB.
	if byMem[128].MedRun < 2*byMem[448].MedRun {
		t.Errorf("128 MB run %v not >> 448 MB run %v", byMem[128].MedRun, byMem[448].MedRun)
	}
	// Beyond the reference allocation, gains flatten out.
	if byMem[1536].MedRun > byMem[448].MedRun {
		t.Errorf("1536 MB run %v slower than 448 MB %v", byMem[1536].MedRun, byMem[448].MedRun)
	}
	if !strings.Contains(RenderMemorySweep(points), "Mem(MB)") {
		t.Error("render incomplete")
	}
}

func TestDIYvsEC2Crossover(t *testing.T) {
	points := RunDIYvsEC2Crossover()
	// DIY must win at the paper's rates and lose at extreme volume,
	// with a single crossover in between.
	if !points[0].LambdaWins {
		t.Error("DIY loses at 100 req/day")
	}
	last := points[len(points)-1]
	if last.LambdaWins {
		t.Error("DIY still wins at 10M req/day; crossover missing")
	}
	flips := 0
	for i := 1; i < len(points); i++ {
		if points[i].LambdaWins != points[i-1].LambdaWins {
			flips++
		}
	}
	if flips != 1 {
		t.Errorf("crossover flips %d times, want exactly 1", flips)
	}
	if !strings.Contains(RenderCrossover(points), "DIY wins") {
		t.Error("render incomplete")
	}
}

func TestColdStartAblation(t *testing.T) {
	points, err := RunColdStartAblation(1)
	if err != nil {
		t.Fatal(err)
	}
	// Cold-start fraction decreases with request rate.
	first, last := points[0], points[len(points)-1]
	if first.ColdFraction <= last.ColdFraction {
		t.Errorf("cold fraction not decreasing: %.2f at %.0f/day vs %.2f at %.0f/day",
			first.ColdFraction, first.DailyRequests, last.ColdFraction, last.DailyRequests)
	}
	// At 10 req/day (2.4 h gaps vs 5 min TTL) essentially every start
	// is cold; at 10k/day (8.6 s gaps) almost none are.
	if first.ColdFraction < 0.9 {
		t.Errorf("10/day cold fraction %.2f, want ≈1", first.ColdFraction)
	}
	if last.ColdFraction > 0.05 {
		t.Errorf("10k/day cold fraction %.2f, want ≈0", last.ColdFraction)
	}
	if !strings.Contains(RenderColdStarts(points), "Fraction") {
		t.Error("render incomplete")
	}
}

func TestPollIntervalAblation(t *testing.T) {
	points := RunPollIntervalAblation()
	// The paper's stated configuration: 20 s polls stay inside the
	// free tier (~132k polls/month).
	last := points[len(points)-1]
	if last.Interval != 20*time.Second || !last.InsideFreeTier {
		t.Errorf("20 s polls not free: %+v", last)
	}
	if last.PollsPerMonth < 125_000 || last.PollsPerMonth > 140_000 {
		t.Errorf("20 s polls/month = %.0f, want ~132k", last.PollsPerMonth)
	}
	// The paper's *count* (876,000/month) corresponds to the 3 s row,
	// which is also free — the claim holds under either reading.
	var threeSec PollPoint
	for _, p := range points {
		if p.Interval == 3*time.Second {
			threeSec = p
		}
	}
	if threeSec.PollsPerMonth < 850_000 || threeSec.PollsPerMonth > 900_000 {
		t.Errorf("3 s polls/month = %.0f, paper's count 876,000", threeSec.PollsPerMonth)
	}
	if !threeSec.InsideFreeTier {
		t.Error("3 s polls not free")
	}
	// 1 s polls are not free.
	if points[0].InsideFreeTier {
		t.Error("1 s polls inside free tier")
	}
	if !strings.Contains(RenderPollInterval(points), "Polls/month") {
		t.Error("render incomplete")
	}
}

func TestFreeTierCrossoverDegenerate(t *testing.T) {
	// Zero-compute profile: the request tier binds.
	p := Profile{ComputePerRequest: 0, LambdaMemMB: 128}
	got := FreeTierCrossoverPerDay(p)
	if got < 33_000 || got > 34_000 {
		t.Fatalf("crossover = %v, want 1M/30", got)
	}
	// Heavy profile: GB-seconds bind first.
	heavy := Profile{ComputePerRequest: 10 * time.Second, LambdaMemMB: 1536}
	if FreeTierCrossoverPerDay(heavy) >= got {
		t.Fatal("heavy profile should cross over earlier")
	}
}

func TestBackendComparison(t *testing.T) {
	points, err := RunBackendComparison(60)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	s3p, dyn := points[0], points[1]
	if s3p.Backend != "s3" || dyn.Backend != "dynamo" {
		t.Fatalf("backends = %q, %q", s3p.Backend, dyn.Backend)
	}
	// The footnote's point: the table store is significantly faster,
	// enough to drop a billing quantum.
	if float64(dyn.MedRun) > 0.7*float64(s3p.MedRun) {
		t.Errorf("dynamo run %v not ≪ s3 run %v", dyn.MedRun, s3p.MedRun)
	}
	if dyn.MedBilled >= s3p.MedBilled {
		t.Errorf("dynamo billed %v not below s3 billed %v", dyn.MedBilled, s3p.MedBilled)
	}
	if !strings.Contains(RenderBackends(points), "dynamo") {
		t.Error("render incomplete")
	}
}

func TestStreamingComparison(t *testing.T) {
	points, err := RunStreamingComparison(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	perReq, open, susp := points[0], points[1], points[2]
	// At 10-minute gaps, every per-request invocation cold starts.
	if perReq.MedLatency < 150*time.Millisecond {
		t.Errorf("per-request latency %v, expected cold-start dominated", perReq.MedLatency)
	}
	// The naive open connection bills roughly the whole hour.
	if open.BilledCompute < 55*time.Minute {
		t.Errorf("open connection billed %v, want ≈1h", open.BilledCompute)
	}
	// Suspend/resume bills within ~20x of per-request (seconds, not
	// the hour) — the §8.3 extension's point.
	if susp.BilledCompute > open.BilledCompute/10 {
		t.Errorf("suspend/resume billed %v, not ≪ open connection %v", susp.BilledCompute, open.BilledCompute)
	}
	if susp.Cost >= open.Cost {
		t.Errorf("suspend/resume cost %v not below open connection %v", susp.Cost, open.Cost)
	}
	// And its per-message latency beats per-request (no dispatch, no
	// full cold start).
	if susp.MedLatency >= perReq.MedLatency {
		t.Errorf("suspend/resume latency %v not below per-request %v", susp.MedLatency, perReq.MedLatency)
	}
	if !strings.Contains(RenderStreaming(points), "suspend/resume") {
		t.Error("render incomplete")
	}
}

func TestVideoHostingComparison(t *testing.T) {
	points := RunVideoHostingComparison()
	byMode := make(map[string]VideoHostPoint)
	for _, p := range points {
		byMode[p.Mode] = p
	}
	ec2 := byMode["ec2 t2.medium (paper)"]
	lambdaList := byMode["lambda conn (list price)"]
	// The paper's Table 2 compute arithmetic: 30 x 15-min t2.medium
	// calls ≈ $0.35/month.
	if d := ec2.MonthlyCost.Dollars(); d < 0.30 || d > 0.40 {
		t.Errorf("ec2 monthly = %v, want ≈$0.35", ec2.MonthlyCost)
	}
	// At list price, a sustained serverless relay is more expensive
	// than the VM — the design-choice justification.
	if lambdaList.MonthlyCost <= ec2.MonthlyCost {
		t.Errorf("lambda list %v not above ec2 %v", lambdaList.MonthlyCost, ec2.MonthlyCost)
	}
	// And 2017 Lambda could not host it at all.
	if byMode["lambda per-request (2017)"].Feasible {
		t.Error("per-request hosting marked feasible")
	}
	if !strings.Contains(RenderVideoHosting(points), "why the paper chose EC2") {
		t.Error("render incomplete")
	}
}

func TestTable3SeedRobustness(t *testing.T) {
	// The calibration must not be overfit to one RNG seed: across
	// different latency-model seeds the medians stay in the paper's
	// neighborhood and billed time stays pinned at the 200 ms quantum.
	for _, seed := range []int64{2, 7, 1234} {
		t3, _, err := RunTable3(Table3Config{Sends: 120, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if t3.MedBilled != 200*time.Millisecond {
			t.Errorf("seed %d: billed %v, want 200ms", seed, t3.MedBilled)
		}
		if t3.MedRun < 120*time.Millisecond || t3.MedRun > 150*time.Millisecond {
			t.Errorf("seed %d: run %v outside [120,150]ms", seed, t3.MedRun)
		}
		if t3.MedE2E < 190*time.Millisecond || t3.MedE2E > 235*time.Millisecond {
			t.Errorf("seed %d: E2E %v outside [190,235]ms", seed, t3.MedE2E)
		}
	}
}

func TestTable3AgreesWithMonitoring(t *testing.T) {
	// The harness measures Table 3 from returned InvocationStats; the
	// monitoring service (the paper's actual measurement path —
	// CloudWatch) must independently agree on the medians.
	cloud, err := core.NewCloud(core.CloudOptions{Name: "monitored"})
	if err != nil {
		t.Fatal(err)
	}
	d, err := chat.Install(cloud, "proto", chat.App{Members: []string{"alice", "bob"}})
	if err != nil {
		t.Fatal(err)
	}
	alice := chat.NewClient(d, "alice", "laptop")
	if _, err := alice.Session(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		cloud.Clock.Advance(40 * time.Second)
		if _, err := alice.Send("monitored send"); err != nil {
			t.Fatal(err)
		}
	}
	var zero time.Time
	medRun := cloud.Metrics.Percentile(d.FnName, metrics.MetricLambdaRunMs, zero, zero, 50)
	medBilled := cloud.Metrics.Percentile(d.FnName, metrics.MetricLambdaBilledMs, zero, zero, 50)
	peak := cloud.Metrics.Max(d.FnName, metrics.MetricLambdaPeakMB, zero, zero)
	coldSum := cloud.Metrics.Sum(d.FnName, metrics.MetricLambdaCold, zero, zero)
	if medRun < 120 || medRun > 150 {
		t.Errorf("monitored median run = %v ms", medRun)
	}
	if medBilled != 200 {
		t.Errorf("monitored median billed = %v ms", medBilled)
	}
	if peak < 45 || peak > 60 {
		t.Errorf("monitored peak = %v MB", peak)
	}
	// Only the very first invocation (the session) cold-started.
	if coldSum != 1 {
		t.Errorf("monitored cold starts = %v", coldSum)
	}
	if n := cloud.Metrics.Count(d.FnName, metrics.MetricLambdaRunMs, zero, zero); n != 101 {
		t.Errorf("monitored samples = %d, want 101", n)
	}
}

func TestDDoSCostStudy(t *testing.T) {
	points, err := RunDDoSCostStudy(5_000)
	if err != nil {
		t.Fatal(err)
	}
	open, throttled := points[0], points[1]
	if open.Throttled || !throttled.Throttled {
		t.Fatalf("point order wrong: %+v", points)
	}
	// Unthrottled, every attack request bills a 500 ms invocation.
	if open.BilledInvokes != float64(open.AttackRequests) {
		t.Errorf("open billed %v of %d", open.BilledInvokes, open.AttackRequests)
	}
	// The throttle caps the damage to the burst.
	if throttled.BilledInvokes > 50 {
		t.Errorf("throttled billed %v invokes", throttled.BilledInvokes)
	}
	// Cost gap of two orders of magnitude or more.
	if throttled.ListCost*100 > open.ListCost {
		t.Errorf("throttle saved too little: %v vs %v", throttled.ListCost, open.ListCost)
	}
	if !strings.Contains(RenderDDoS(points), "throttle 5 rps") {
		t.Error("render incomplete")
	}
}

func TestSustainedAttackMonthly(t *testing.T) {
	// 30M requests x (request fee + 0.0625 GB-s): ≈ $37/month — two
	// orders of magnitude above the entire DIY budget, hence §8.2's
	// concern.
	got := SustainedAttackMonthly().Dollars()
	if got < 25 || got > 50 {
		t.Fatalf("sustained attack = $%.2f, want ≈$37", got)
	}
}

func TestTable2MeasuredAgreesWithClosedForm(t *testing.T) {
	rows, err := RunTable2Measured(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Poisson noise: allow a 4-sigma band around the target rate.
		sigma := math.Sqrt(r.TargetPerDay)
		if math.Abs(r.MeasuredPerDay-r.TargetPerDay) > 4*sigma {
			t.Errorf("%s measured %.0f/day vs target %.0f (4σ=%.0f)",
				r.Application, r.MeasuredPerDay, r.TargetPerDay, 4*sigma)
		}
		// The closed-form Table 2's conclusion: compute is free at
		// these rates.
		if r.ComputeCost != 0 {
			t.Errorf("%s measured compute = %v, want $0.00", r.Application, r.ComputeCost)
		}
		// And the month's GB-seconds stay inside the 400k allowance.
		if r.GBSecondsMonth >= 400_000 {
			t.Errorf("%s GB-s/month = %.0f", r.Application, r.GBSecondsMonth)
		}
	}
}
