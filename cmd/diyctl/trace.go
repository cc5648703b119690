package main

import (
	"flag"
	"fmt"
	"time"

	diy "repro"
	"repro/internal/cloudsim/sortutil"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/fleet/telemetry"
	"repro/internal/pricing"
)

// traceDemo demonstrates the X-Ray-sim pillar. The default mode sends
// two traced chat messages — one against a cold container, one warm —
// prints each as a flame-style span tree with per-hop latency and
// list-price cost, cross-checks the trace's cost ledger against the
// pricing meter, then shows what the columnar store derives from the
// same traces: the service map, a filter-expression query, and the
// X-Ray bill. With -fleet it instead samples traces across a whole
// fleet of accounts and renders the control tower's fleet-wide
// service map and critical-path rollup (stdout is bit-identical
// across replays — check.sh diffs it).
func traceDemo(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	fleetMode := fs.Bool("fleet", false, "sample traces across a fleet and render the fleet-wide service map")
	accounts := fs.Int("accounts", 300, "fleet size (with -fleet)")
	span := fs.Duration("span", 15*time.Minute, "simulated activity window per account (with -fleet)")
	seed := fs.Int64("seed", 1, "fleet master seed (with -fleet)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fleetMode {
		return traceFleet(*accounts, *span, *seed)
	}

	fmt.Println("== distributed request tracing and cost attribution ==")
	cloud, err := diy.NewCloud(diy.CloudOptions{Name: "trace-demo"})
	if err != nil {
		return err
	}
	room, err := diy.InstallChat(cloud, "casey", "casey", "dana")
	if err != nil {
		return err
	}
	casey := diy.NewChatClient(room, "casey", "laptop")
	dana := diy.NewChatClient(room, "dana", "phone")
	if _, err := casey.Session(); err != nil {
		return err
	}
	if _, err := dana.Session(); err != nil {
		return err
	}

	// Idle past the warm-pool TTL so the next invocation provisions a
	// fresh container: the trace shows where the cold start hides.
	cloud.Clock.Advance(10 * time.Minute)
	before := cloud.Meter.Snapshot()
	fmt.Println("\n-- first message after 10 idle minutes (cold container):")
	cold, err := casey.SendTraced("good morning — this send pays the cold start")
	if err != nil {
		return err
	}
	tr := cold.Trace
	fmt.Print(indent(tr.Render(cloud.Book)))

	// The trace's ledger and the billing meter saw the same usage.
	diff := meterDiff(before, cloud.Meter.Snapshot())
	var metered pricing.Money
	for _, u := range diff {
		metered += cloud.Book.ListPrice(u)
	}
	fmt.Printf("\n   trace cost %s == metered cost %s for the same flow\n",
		fmtMoney(tr.Cost(cloud.Book)), fmtMoney(metered))

	fmt.Println("\n-- second message 30 seconds later (warm container):")
	cloud.Clock.Advance(30 * time.Second)
	warm, err := casey.SendTraced("and this one rides a warm container")
	if err != nil {
		return err
	}
	tr2 := warm.Trace
	fmt.Print(indent(tr2.Render(cloud.Book)))
	fmt.Printf("\n   cold send: %v and %s; warm send: %v and %s\n",
		tr.Duration().Round(time.Millisecond), fmtMoney(tr.Cost(cloud.Book)),
		tr2.Duration().Round(time.Millisecond), fmtMoney(tr2.Cost(cloud.Book)))

	// What the columnar store derives from the same stored traces.
	st := cloud.Tracer
	last, _ := st.Last()
	fmt.Printf("   store holds %d trace(s); latest: %q\n", st.Len(), last.Name())

	fmt.Println("\n-- service map derived from the stored traces:")
	fmt.Print(indent(st.ServiceMap(cloud.Book, time.Time{}, time.Time{}).Render()))

	fmt.Println("\n-- filter-expression queries over the store:")
	for _, expr := range []string{
		`annotation.cold_start = true`,
		`service("kms") AND duration > 500ms`,
	} {
		matches, err := st.Query(expr, cloud.Book, time.Time{}, time.Time{})
		if err != nil {
			return err
		}
		fmt.Printf("   %-40q -> %d of %d traces\n", expr, len(matches), st.Len())
	}

	stats := st.Stats()
	var xray pricing.Money
	for _, u := range st.Usage() {
		xray += cloud.Book.ListPrice(u)
	}
	fmt.Printf("\n   x-ray: %d sampling decisions, %d kept, %d stored, %d scanned; list price %s (free tier covers 100k/1M)\n",
		stats.Decided, stats.Kept, stats.Stored, stats.Scanned, fmtMoney(xray))
	return nil
}

// traceFleet runs a fleet with per-account head sampling (X-Ray's
// reservoir + 5% rule, seeded from each account's workload substream)
// and renders the control tower's fleet-wide trace rollups.
func traceFleet(accounts int, span time.Duration, seed int64) error {
	tower := telemetry.NewTower(telemetry.Options{})
	cfg := fleet.Config{
		Accounts: accounts,
		Seed:     seed,
		Span:     span,
		Trace:    true,
		Tower:    tower,
	}
	rep, err := experiments.RunFleet(cfg)
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	fmt.Print(tower.RenderTraceDashboard())
	return nil
}

// meterDiff subtracts an earlier meter snapshot from a later one,
// returning the usage metered in between.
func meterDiff(before, after []pricing.Usage) []pricing.Usage {
	type key struct {
		kind     pricing.Kind
		resource string
		app      string
	}
	prev := make(map[key]float64, len(before))
	for _, u := range before {
		prev[key{u.Kind, u.Resource, u.App}] += u.Quantity
	}
	var out []pricing.Usage
	for _, u := range after {
		if d := u.Quantity - prev[key{u.Kind, u.Resource, u.App}]; d > 1e-12 {
			out = append(out, pricing.Usage{Kind: u.Kind, Quantity: d, Resource: u.Resource, App: u.App})
		}
	}
	return out
}

func fmtMoney(m pricing.Money) string { return sortutil.FormatMoneyNanos(m.Nanodollars()) }
