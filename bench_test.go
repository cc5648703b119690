package diy_test

// Benchmark harness: one testing.B benchmark per paper table and
// figure, plus the ablations DESIGN.md indexes. Each benchmark
// regenerates its artifact through the simulator and reports the
// headline values as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reprints the paper's evaluation. Absolute nanoseconds measure the
// harness, not 2017 AWS; the reported metrics carry the reproduced
// numbers.

import (
	"testing"
	"time"

	diy "repro"
	"repro/internal/apps/chat"
	"repro/internal/crypto/envelope"
	"repro/internal/experiments"
)

// BenchmarkTable1EC2EmailCost regenerates Table 1 (the §5 strawman).
func BenchmarkTable1EC2EmailCost(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		t1, err := experiments.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		total = t1.Total.Dollars()
	}
	b.ReportMetric(total, "$total/mo")
}

// BenchmarkTable2DIYCosts regenerates all five Table 2 rows.
func BenchmarkTable2DIYCosts(b *testing.B) {
	var chatTotal, emailTotal, videoTotal float64
	for i := 0; i < b.N; i++ {
		rows := experiments.RunTable2()
		for _, r := range rows {
			switch r.Profile.Application {
			case "Group Chat":
				chatTotal = r.Total.Dollars()
			case "Email":
				emailTotal = r.Total.Dollars()
			case "Video Conferencing":
				videoTotal = r.Total.Dollars()
			}
		}
	}
	b.ReportMetric(chatTotal, "$chat/mo")
	b.ReportMetric(emailTotal, "$email/mo")
	b.ReportMetric(videoTotal, "$video/mo")
}

// BenchmarkTable3ChatPrototype measures the §6.2 prototype (200 sends
// per iteration) and reports the paper's three medians.
func BenchmarkTable3ChatPrototype(b *testing.B) {
	var run, billed, e2e time.Duration
	for i := 0; i < b.N; i++ {
		t3, _, err := experiments.RunTable3(experiments.Table3Config{Sends: 200})
		if err != nil {
			b.Fatal(err)
		}
		run, billed, e2e = t3.MedRun, t3.MedBilled, t3.MedE2E
	}
	b.ReportMetric(float64(run.Milliseconds()), "medRun-ms")
	b.ReportMetric(float64(billed.Milliseconds()), "medBilled-ms")
	b.ReportMetric(float64(e2e.Milliseconds()), "medE2E-ms")
}

// BenchmarkFigure1RequestFlow traces one full DIY request and verifies
// the privacy invariants.
func BenchmarkFigure1RequestFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := experiments.RunFigure1()
		if err != nil {
			b.Fatal(err)
		}
		if !tr.OK() {
			b.Fatal("invariants failed")
		}
	}
}

// BenchmarkClaimEmailSavings recomputes the abstract's savings factor.
func BenchmarkClaimEmailSavings(b *testing.B) {
	var single, ha float64
	for i := 0; i < b.N; i++ {
		c, err := experiments.RunClaims()
		if err != nil {
			b.Fatal(err)
		}
		single, ha = c.SavingsVsSingleEC2, c.SavingsVsHAEC2
	}
	b.ReportMetric(single, "x-vs-EC2")
	b.ReportMetric(ha, "x-vs-HA-EC2")
}

// BenchmarkAblationMemoryLatency sweeps the function memory allocation
// (the §6.2 128 MB vs 448 MB observation).
func BenchmarkAblationMemoryLatency(b *testing.B) {
	var at128, at448 time.Duration
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunMemorySweep(40)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			switch p.MemoryMB {
			case 128:
				at128 = p.MedRun
			case 448:
				at448 = p.MedRun
			}
		}
	}
	b.ReportMetric(float64(at128.Milliseconds()), "run128MB-ms")
	b.ReportMetric(float64(at448.Milliseconds()), "run448MB-ms")
}

// BenchmarkAblationFreeTierCrossover finds where compute stops being
// free for each Table 2 profile.
func BenchmarkAblationFreeTierCrossover(b *testing.B) {
	var emailCross float64
	for i := 0; i < b.N; i++ {
		for _, p := range experiments.Table2Profiles() {
			if p.Provider != "Lambda" {
				continue
			}
			c := experiments.FreeTierCrossoverPerDay(p)
			if p.Application == "Email" {
				emailCross = c
			}
		}
	}
	b.ReportMetric(emailCross, "email-req/day")
}

// BenchmarkAblationDIYvsEC2Crossover sweeps request volume to the
// point where an always-on VM wins.
func BenchmarkAblationDIYvsEC2Crossover(b *testing.B) {
	var crossover float64
	for i := 0; i < b.N; i++ {
		points := experiments.RunDIYvsEC2Crossover()
		for _, p := range points {
			if !p.LambdaWins {
				crossover = p.DailyRequests
				break
			}
		}
	}
	b.ReportMetric(crossover, "crossover-req/day")
}

// BenchmarkAblationColdStart measures cold-start fraction vs rate.
func BenchmarkAblationColdStart(b *testing.B) {
	var lowRate, highRate float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunColdStartAblation(0.5)
		if err != nil {
			b.Fatal(err)
		}
		lowRate = points[0].ColdFraction
		highRate = points[len(points)-1].ColdFraction
	}
	b.ReportMetric(lowRate*100, "cold%-at-10/day")
	b.ReportMetric(highRate*100, "cold%-at-10k/day")
}

// BenchmarkAblationPollInterval prices the SQS long-poll sweep.
func BenchmarkAblationPollInterval(b *testing.B) {
	var at20s float64
	for i := 0; i < b.N; i++ {
		points := experiments.RunPollIntervalAblation()
		at20s = points[len(points)-1].PollsPerMonth
	}
	b.ReportMetric(at20s, "polls/mo-at-20s")
}

// BenchmarkChatSendWarm measures a single warm chat send through the
// full stack (gateway, function, KMS, S3, SQS) — harness overhead per
// simulated request.
func BenchmarkChatSendWarm(b *testing.B) {
	cloud, err := diy.NewCloud(diy.CloudOptions{})
	if err != nil {
		b.Fatal(err)
	}
	room, err := diy.InstallChat(cloud, "alice", "alice", "bob")
	if err != nil {
		b.Fatal(err)
	}
	alice := chat.NewClient(room, "alice", "bench")
	if _, err := alice.Session(); err != nil {
		b.Fatal(err)
	}
	if _, err := alice.Send("warm up"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alice.Send("bench message"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnvelopeSeal measures the crypto hot path (1 KiB payload).
func BenchmarkEnvelopeSeal(b *testing.B) {
	key, err := envelope.NewDataKey()
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := envelope.Seal(key, payload, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnvelopeOpen measures decryption of a 1 KiB payload.
func BenchmarkEnvelopeOpen(b *testing.B) {
	key, err := envelope.NewDataKey()
	if err != nil {
		b.Fatal(err)
	}
	sealed, err := envelope.Seal(key, make([]byte, 1024), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := envelope.Open(key, sealed, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBackend compares the chat state backends (the
// paper's footnote: DynamoDB as a low-latency alternative to S3).
func BenchmarkAblationBackend(b *testing.B) {
	var s3Run, dynRun time.Duration
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunBackendComparison(40)
		if err != nil {
			b.Fatal(err)
		}
		s3Run, dynRun = points[0].MedRun, points[1].MedRun
	}
	b.ReportMetric(float64(s3Run.Milliseconds()), "s3-run-ms")
	b.ReportMetric(float64(dynRun.Milliseconds()), "dynamo-run-ms")
}

// BenchmarkExtensionStreaming quantifies the §8.3 suspend/resume
// connection extension against per-request and always-open hosting.
func BenchmarkExtensionStreaming(b *testing.B) {
	var openBilled, suspBilled time.Duration
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunStreamingComparison(6)
		if err != nil {
			b.Fatal(err)
		}
		openBilled, suspBilled = points[1].BilledCompute, points[2].BilledCompute
	}
	b.ReportMetric(openBilled.Seconds(), "open-conn-billed-s")
	b.ReportMetric(suspBilled.Seconds(), "suspend-billed-s")
}

// BenchmarkAblationDDoS prices the §8.2 burst-attack study.
func BenchmarkAblationDDoS(b *testing.B) {
	var openCost, throttledCost float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunDDoSCostStudy(2_000)
		if err != nil {
			b.Fatal(err)
		}
		openCost = points[0].ListCost.Dollars()
		throttledCost = points[1].ListCost.Dollars()
	}
	b.ReportMetric(openCost*1000, "open-m$")
	b.ReportMetric(throttledCost*1000, "throttled-m$")
}
