package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/sim"
	"repro/internal/pricing"
	"repro/internal/workload"
)

// MemoryPoint is one row of the memory-latency ablation (§6.2: "Even
// though our function only uses 51MB of memory, allocating 448 MB gave
// significantly better latencies than a 128 MB function").
type MemoryPoint struct {
	MemoryMB    int
	MedRun      time.Duration
	MedBilled   time.Duration
	MedE2E      time.Duration
	CostPer100K pricing.Money
}

// RunMemorySweep measures the chat prototype across memory
// allocations.
func RunMemorySweep(sends int) ([]MemoryPoint, error) {
	if sends <= 0 {
		sends = 80
	}
	var out []MemoryPoint
	for _, mem := range []int{128, 192, 256, 448, 704, 960, 1216, 1536} {
		t3, _, err := RunTable3(Table3Config{Sends: sends, MemoryMB: mem})
		if err != nil {
			return nil, fmt.Errorf("memory sweep at %d MB: %w", mem, err)
		}
		out = append(out, MemoryPoint{
			MemoryMB:    mem,
			MedRun:      t3.MedRun,
			MedBilled:   t3.MedBilled,
			MedE2E:      t3.MedE2E,
			CostPer100K: t3.CostPer100K,
		})
	}
	return out, nil
}

// RenderMemorySweep prints the sweep.
func RenderMemorySweep(points []MemoryPoint) string {
	var sb strings.Builder
	sb.WriteString("Ablation: function memory vs chat latency and cost (paper §6.2 observation)\n")
	fmt.Fprintf(&sb, "  %8s %12s %12s %12s %14s\n", "Mem(MB)", "MedRun", "MedBilled", "MedE2E", "Cost/100K")
	for _, p := range points {
		fmt.Fprintf(&sb, "  %8d %12v %12v %12v %14s\n",
			p.MemoryMB, p.MedRun.Round(time.Millisecond), p.MedBilled,
			p.MedE2E.Round(time.Millisecond), p.CostPer100K)
	}
	return sb.String()
}

// CrossoverPoint is one row of the DIY-vs-EC2 cost sweep.
type CrossoverPoint struct {
	DailyRequests float64
	LambdaMonthly pricing.Money
	EC2Monthly    pricing.Money
	LambdaWins    bool
}

// RunDIYvsEC2Crossover sweeps the request rate for an email-shaped
// service and reports where pay-per-request stops being cheaper than
// an always-on t2.nano. Storage and transfer are identical on both
// sides, so only compute is compared.
func RunDIYvsEC2Crossover() []CrossoverPoint {
	book := pricing.Default2017()
	email := emailProfile()
	ec2Monthly := book.EC2Hourly("t2.nano").MulFloat(pricing.MonthHours)

	var out []CrossoverPoint
	for _, perDay := range []float64{100, 1_000, 10_000, 33_000, 100_000, 300_000, 1_000_000, 3_000_000, 10_000_000} {
		m := pricing.NewMeter()
		m.Add(pricing.Usage{Kind: pricing.LambdaRequests, Quantity: perDay * 30})
		perReqGBs := billedPerRequest(email.ComputePerRequest).Seconds() * float64(email.LambdaMemMB) / 1024
		m.Add(pricing.Usage{Kind: pricing.LambdaGBSeconds, Quantity: perDay * 30 * perReqGBs})
		lambdaMonthly := pricing.Compute(book, m).Total()
		out = append(out, CrossoverPoint{
			DailyRequests: perDay,
			LambdaMonthly: lambdaMonthly,
			EC2Monthly:    ec2Monthly,
			LambdaWins:    lambdaMonthly < ec2Monthly,
		})
	}
	return out
}

// RenderCrossover prints the sweep.
func RenderCrossover(points []CrossoverPoint) string {
	var sb strings.Builder
	sb.WriteString("Ablation: DIY (Lambda) vs always-on EC2 compute cost by request volume\n")
	fmt.Fprintf(&sb, "  %12s %14s %14s %10s\n", "Req/day", "Lambda/mo", "t2.nano/mo", "DIY wins")
	for _, p := range points {
		fmt.Fprintf(&sb, "  %12.0f %14s %14s %10v\n",
			p.DailyRequests, p.LambdaMonthly, p.EC2Monthly, p.LambdaWins)
	}
	return sb.String()
}

// ColdStartPoint is one row of the cold-start ablation.
type ColdStartPoint struct {
	DailyRequests float64
	Invocations   int
	ColdStarts    int
	ColdFraction  float64
}

// RunColdStartAblation drives Poisson arrivals at several rates
// through a function with the default 5-minute warm pool and reports
// the cold-start fraction — why DIY's latency profile depends on
// traffic.
func RunColdStartAblation(days float64) ([]ColdStartPoint, error) {
	if days <= 0 {
		days = 2
	}
	var out []ColdStartPoint
	for _, perDay := range []float64{10, 50, 200, 500, 2000, 10000} {
		meter := pricing.NewMeter()
		model := netsim.NewDefaultModel()
		clk := clock.NewVirtual()
		platform := lambda.New(meter, model, clk)
		err := platform.RegisterFunction(lambda.Function{
			Name: "probe",
			Handler: func(env *lambda.Env, ev lambda.Event) (lambda.Response, error) {
				env.Compute(50 * time.Millisecond)
				return lambda.Response{Status: 200}, nil
			},
		})
		if err != nil {
			return nil, err
		}
		arrivals := workload.NewPoisson(11, perDay, clock.Epoch).
			ArrivalsWithin(time.Duration(days * 24 * float64(time.Hour)))
		for _, at := range arrivals {
			ctx := &sim.Context{Cursor: sim.NewCursor(at)}
			if _, _, err := platform.Invoke(ctx, "probe", lambda.Event{}); err != nil {
				return nil, err
			}
		}
		inv, cold := platform.Stats("probe")
		p := ColdStartPoint{DailyRequests: perDay, Invocations: int(inv), ColdStarts: int(cold)}
		if inv > 0 {
			p.ColdFraction = float64(cold) / float64(inv)
		}
		out = append(out, p)
	}
	return out, nil
}

// RenderColdStarts prints the ablation.
func RenderColdStarts(points []ColdStartPoint) string {
	var sb strings.Builder
	sb.WriteString("Ablation: cold-start fraction vs request rate (5 min warm pool)\n")
	fmt.Fprintf(&sb, "  %12s %12s %12s %10s\n", "Req/day", "Invocations", "Cold", "Fraction")
	for _, p := range points {
		fmt.Fprintf(&sb, "  %12.0f %12d %12d %9.1f%%\n",
			p.DailyRequests, p.Invocations, p.ColdStarts, 100*p.ColdFraction)
	}
	return sb.String()
}

// BackendPoint is one row of the state-backend comparison (the paper's
// footnote: "Amazon DynamoDB is a low-latency alternative to S3").
type BackendPoint struct {
	Backend   string
	MedRun    time.Duration
	MedBilled time.Duration
	MedE2E    time.Duration
}

// RunBackendComparison measures the chat prototype on both state
// backends.
func RunBackendComparison(sends int) ([]BackendPoint, error) {
	if sends <= 0 {
		sends = 100
	}
	var out []BackendPoint
	for _, backend := range []string{"s3", "dynamo"} {
		cfgBackend := backend
		if cfgBackend == "s3" {
			cfgBackend = ""
		}
		t3, _, err := RunTable3(Table3Config{Sends: sends, Backend: cfgBackend})
		if err != nil {
			return nil, fmt.Errorf("backend %s: %w", backend, err)
		}
		out = append(out, BackendPoint{
			Backend:   backend,
			MedRun:    t3.MedRun,
			MedBilled: t3.MedBilled,
			MedE2E:    t3.MedE2E,
		})
	}
	return out, nil
}

// RenderBackends prints the comparison.
func RenderBackends(points []BackendPoint) string {
	var sb strings.Builder
	sb.WriteString("Ablation: chat state backend — S3 vs DynamoDB (paper footnote 1)\n")
	fmt.Fprintf(&sb, "  %10s %12s %12s %12s\n", "Backend", "MedRun", "MedBilled", "MedE2E")
	for _, p := range points {
		fmt.Fprintf(&sb, "  %10s %12v %12v %12v\n",
			p.Backend, p.MedRun.Round(time.Millisecond), p.MedBilled, p.MedE2E.Round(time.Millisecond))
	}
	return sb.String()
}

// PollPoint is one row of the long-poll interval ablation.
type PollPoint struct {
	Interval       time.Duration
	PollsPerMonth  float64
	MonthlyCost    pricing.Money
	InsideFreeTier bool
}

// RunPollIntervalAblation examines the §6.2 claim: "Clients poll
// 876,000 times per month (assuming the maximum 20 second poll
// interval), which is well within the free tier." The count 876,000
// actually corresponds to a 3-second interval over a 730-hour month
// (730 x 3600 / 3); at the stated 20-second interval the count is only
// ~132,000 — even deeper inside the free tier, so the claim holds
// either way. Both rows appear in the sweep.
func RunPollIntervalAblation() []PollPoint {
	book := pricing.Default2017()
	var out []PollPoint
	for _, interval := range []time.Duration{
		time.Second, 3 * time.Second, 5 * time.Second, 10 * time.Second, 20 * time.Second,
	} {
		polls := pricing.Month.Seconds() / interval.Seconds()
		m := pricing.NewMeter()
		m.Add(pricing.Usage{Kind: pricing.SQSRequests, Quantity: polls})
		cost := pricing.Compute(book, m).Total()
		out = append(out, PollPoint{
			Interval:       interval,
			PollsPerMonth:  polls,
			MonthlyCost:    cost,
			InsideFreeTier: cost == 0,
		})
	}
	return out
}

// RenderPollInterval prints the ablation.
func RenderPollInterval(points []PollPoint) string {
	var sb strings.Builder
	sb.WriteString("Ablation: SQS long-poll interval vs monthly polling cost\n")
	fmt.Fprintf(&sb, "  %10s %16s %12s %10s\n", "Interval", "Polls/month", "Cost", "Free tier")
	for _, p := range points {
		fmt.Fprintf(&sb, "  %10v %16.0f %12s %10v\n",
			p.Interval, p.PollsPerMonth, p.MonthlyCost, p.InsideFreeTier)
	}
	return sb.String()
}
