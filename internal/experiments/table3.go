package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/apps/chat"
	"repro/internal/cloudsim/metrics"
	"repro/internal/cloudsim/netsim"
	"repro/internal/core"
	"repro/internal/pricing"
)

// Table3 holds the chat prototype statistics (§6.2), measured by
// driving the actual application through the simulated platform.
type Table3 struct {
	MedBilled    time.Duration
	MedRun       time.Duration
	MedE2E       time.Duration
	AllocatedMB  int
	PeakMemoryMB int64
	// CostPer100K is the marginal Lambda cost of 100,000 requests at
	// the measured billed time, with no free-tier credit (request fee
	// plus GB-seconds).
	CostPer100K pricing.Money
	Samples     int
	ColdStarts  int
	// Tail behaviour (not in the paper's table; extra observability).
	P95Run time.Duration
	P99E2E time.Duration
}

// Table3Config parameterizes the prototype run.
type Table3Config struct {
	// Sends is the number of measured messages (default 200).
	Sends int
	// MemoryMB is the function allocation (default 448, the paper's).
	MemoryMB int
	// Backend selects the chat state store ("" = S3, "dynamo").
	Backend string
	// Seed overrides the latency model's random seed (0 = default).
	Seed int64
}

// table3Gap spaces messages on the simulated clock (≈2000 messages/day).
const table3Gap = 40 * time.Second

// RunTable3 deploys the chat prototype on a fresh simulated cloud with
// every telemetry store on, exchanges messages between two members,
// and reports the medians the paper's Table 3 lists. It also returns
// the same send window as each evidence source recorded it, and fails
// if any two sources disagree beyond their stated precision.
func RunTable3(cfg Table3Config) (*Table3, *Table3Evidence, error) {
	_, t, ev, err := runTable3(cfg, core.CloudOptions{})
	return t, ev, err
}

// runTable3 is RunTable3 on a cloud built with opts, so the parity
// tests can switch stores off; sources whose store is off drop out of
// the reconciliation. It also returns the cloud for tests that read a
// store directly.
func runTable3(cfg Table3Config, opts core.CloudOptions) (*core.Cloud, *Table3, *Table3Evidence, error) {
	if cfg.Sends <= 0 {
		cfg.Sends = 200
	}
	if cfg.MemoryMB == 0 {
		cfg.MemoryMB = 448
	}

	opts.Name = "table3"
	if cfg.Seed != 0 {
		params := netsim.DefaultParams()
		params.Seed = cfg.Seed
		opts.NetParams = &params
	}
	cloud, err := core.NewCloud(opts)
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := chat.Install(cloud, "proto", chat.App{
		Members:  []string{"alice", "bob"},
		MemoryMB: cfg.MemoryMB,
		Backend:  cfg.Backend,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	alice := chat.NewClient(d, "alice", "laptop")
	bob := chat.NewClient(d, "bob", "phone")
	if _, err := alice.Session(); err != nil {
		return nil, nil, nil, err
	}
	if _, err := bob.Session(); err != nil {
		return nil, nil, nil, err
	}

	var billed, run, e2e []time.Duration
	var peak int64
	cold := 0
	var from time.Time
	for i := 0; i < cfg.Sends; i++ {
		cloud.Clock.Advance(table3Gap)
		sendStart := cloud.Clock.Now()
		if i == 0 {
			// The evidence window opens after the session-initiation
			// invocations: Table 3 measures sends only.
			from = sendStart
		}

		before := cloud.Meter.Snapshot()
		tr, stats, err := alice.SendTraced(fmt.Sprintf("message %d from the prototype run", i))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("table3 send %d: %w", i, err)
		}
		if err := meterAgrees(tr.Usage(), before, cloud.Meter.Snapshot()); err != nil {
			return nil, nil, nil, fmt.Errorf("table3 send %d: %w", i, err)
		}
		sentAt := tr.Root().End()
		billed = append(billed, stats.BilledTime)
		run = append(run, stats.RunTime)
		if stats.PeakMemoryBytes > peak {
			peak = stats.PeakMemoryBytes
		}
		if stats.ColdStart {
			cold++
		}

		// Bob's long poll was outstanding before the send: E2E runs
		// from the send initiation to his decrypted delivery.
		pollCtx := bob.PollContext(sendStart)
		msgs, err := bob.Receive(pollCtx, 20*time.Second)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("table3 receive %d: %w", i, err)
		}
		if len(msgs) != 1 {
			return nil, nil, nil, fmt.Errorf("table3 receive %d: got %d messages", i, len(msgs))
		}
		// Causality check on the simulated timeline: Bob's decrypted
		// delivery can never precede the instant Alice's send completed.
		if delivered := pollCtx.Cursor.Now(); delivered.Before(sentAt) {
			return nil, nil, nil, fmt.Errorf("table3 receive %d: delivered at %v before send completed at %v", i, delivered, sentAt)
		}
		e2e = append(e2e, pollCtx.Cursor.Now().Sub(sendStart))
	}

	fn, _ := cloud.Lambda.Function(d.FnName)
	medBilled := median(billed)
	book := cloud.Book
	perRequest := book.LambdaPerMillionRequests.MulFloat(1.0/1e6) +
		book.LambdaPerGBSecond.MulFloat(medBilled.Seconds()*float64(fn.MemoryMB)/1024)
	t := &Table3{
		MedBilled:    medBilled,
		MedRun:       median(run),
		MedE2E:       median(e2e),
		P95Run:       percentile(run, 95),
		P99E2E:       percentile(e2e, 99),
		AllocatedMB:  fn.MemoryMB,
		PeakMemoryMB: peak >> 20,
		CostPer100K:  perRequest.MulFloat(100_000),
		Samples:      cfg.Sends,
		ColdStarts:   cold,
	}

	stats := reading{source: "stats"}
	stats.q[qBilled] = exact(millis(nearestRank(billed, 50)))
	stats.q[qRun] = exact(millis(nearestRank(run, 50)))
	stats.q[qPeak] = exact(float64(peak) / (1 << 20))
	stats.q[qCold] = exact(float64(cold))
	stats.q[qInvocations] = exact(float64(cfg.Sends))
	ev := &Table3Evidence{sends: cfg.Sends, readings: []reading{stats}}
	if err := ev.gather(cloud, opts, d.FnName, from); err != nil {
		return nil, nil, nil, err
	}
	if err := reconcile(ev.readings); err != nil {
		return nil, nil, nil, fmt.Errorf("table3: evidence disagrees: %w", err)
	}
	return cloud, t, ev, nil
}

// Render prints the statistics in the paper's Table 3 layout.
func (t *Table3) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 3: Statistics collected for our chat service\n")
	fmt.Fprintf(&sb, "  %-38s %10v\n", "Med. Lambda Time Billed", t.MedBilled.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  %-38s %10v\n", "Med. Lambda Time Run", t.MedRun.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  %-38s %10v\n", "E2E Chat Latency (median)", t.MedE2E.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  %-38s %7d MB\n", "Lambda Memory Allocated", t.AllocatedMB)
	fmt.Fprintf(&sb, "  %-38s %7d MB\n", "Peak Memory Used", t.PeakMemoryMB)
	fmt.Fprintf(&sb, "  %-38s %10s\n", "Med. Lambda Cost per 100K Requests", t.CostPer100K)
	fmt.Fprintf(&sb, "  %-38s %10d\n", "(samples)", t.Samples)
	fmt.Fprintf(&sb, "  %-38s %10d\n", "(cold starts)", t.ColdStarts)
	fmt.Fprintf(&sb, "  %-38s %10v\n", "(p95 run)", t.P95Run.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  %-38s %10v\n", "(p99 E2E)", t.P99E2E.Round(time.Millisecond))
	return sb.String()
}

// median returns the upper-middle sample for even counts (index
// len/2, so sample 101 of 200), not the nearest-rank p50, which is the
// lower one. ledger_table3.golden pins this definition; the evidence
// reconciliation uses nearestRank instead.
func median(samples []time.Duration) time.Duration { return percentile(samples, 50) }

// percentile returns the sample at index len*p/100 of the sorted
// samples: one rank above nearest-rank whenever len*p/100 is whole.
func percentile(samples []time.Duration, p int) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	cp := slices.Clone(samples)
	slices.Sort(cp)
	idx := len(cp) * p / 100
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}

// nearestRank returns the p-th percentile by nearest rank, the
// definition CloudWatch (and the metrics, logs and trace stores here)
// use, so every evidence source's median picks the same sample.
func nearestRank[T cmp.Ordered](samples []T, p int) T {
	if len(samples) == 0 {
		var zero T
		return zero
	}
	cp := slices.Clone(samples)
	slices.Sort(cp)
	return cp[metrics.NearestRank(len(cp), float64(p))]
}
