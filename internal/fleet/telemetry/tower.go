// Package telemetry is the fleet control tower: the fleet engine
// observing itself. It has three layers.
//
// Cross-account rollups: the moment an account's simulation completes,
// ObserveAccount reduces its CloudWatch store (the plane
// requests/errors/denials/latency/cost series and the cumulative
// account cost gauge) and, when the run is traced, its X-Ray-sim store
// (sampling counters, list price, service map, critical-path profile)
// to an AccountRecord the worker keeps in the account's outcome slot.
// Nothing is written to the tower but the -watch progress counters.
//
// Engine totals: Finalize runs once after the workers join and folds
// the records in account-index order, plus each shard's request count,
// into the dashboard's rows. Everything it folds is a pure function of
// the fleet's replay identity, so the dashboards are bit-identical
// across runs at any worker count. Finalize rebuilds its state from
// its inputs alone, so a tower can serve any number of runs.
//
// Host-time phase timers: install vs drain per account, and the run's
// profile/drain/aggregate phases, measured through metrics.HostNow.
// These read zero unless a host clock was injected (diyctl does; tests
// and simulated runs never do), so enabling the tower cannot move a
// ledger golden — the check.sh parity gate proves it.
package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cloudsim/metrics"
	"repro/internal/cloudsim/trace"
	"repro/internal/pricing"
)

// Options parameterizes a Tower.
type Options struct {
	// TopN is how many most-expensive accounts the dashboard table
	// lists (default 5).
	TopN int
}

// AccountObservation is everything the engine reports about one
// completed account simulation. Virtual-time fields are replay
// identity; the two host-ns fields are zero unless a host clock was
// injected.
type AccountObservation struct {
	// Index is the account's fleet position.
	Index int
	// Kind names the app the account ran.
	Kind string
	// Requests and ColdStarts count workload arrivals served and cold
	// containers hit over the span.
	Requests, ColdStarts int
	// MonthlyCostNanos is the account's extrapolated monthly bill in
	// nanodollars.
	MonthlyCostNanos int64
	// InstallHostNs and DrainHostNs split the account's host-clock time
	// between NewCloud+app install and the request-plane replay.
	InstallHostNs, DrainHostNs int64
}

// AccountRecord is the tower's reduction of one finished account,
// built by ObserveAccount and folded by Finalize.
type AccountRecord struct {
	obs AccountObservation
	// services holds one row per plane namespace, in the order the
	// account's store created the series.
	services []nsRollup
	// gaugeNanos is the final reading of the account's cost gauge.
	gaugeNanos float64
	// The account's X-Ray-sim rollup; zero and nil when untraced.
	traceStats trace.StoreStats
	traceList  int64 // x-ray usage at list price, in nanodollars
	traceMap   *trace.ServiceMap
	traceCrit  *trace.CriticalProfile
}

// nsRollup sums one "service/op" namespace's plane series.
type nsRollup struct {
	ns        string
	requests  float64
	errors    float64
	denials   float64
	latencyMs float64
	costNanos float64
}

// PhaseTimings is the run's host-clock phase split. All zero unless a
// host clock was injected via metrics.SetHostClock.
type PhaseTimings struct {
	// ProfilesNs covers account-profile generation, DrainNs the shard
	// workers' run, AggregateNs the account-order merge.
	ProfilesNs, DrainNs, AggregateNs int64
}

// Progress is a live snapshot of a running fleet, safe to poll from a
// watcher goroutine while shards drain.
type Progress struct {
	// AccountsDone / AccountsTotal and ShardsDone / ShardsTotal track
	// completion; Requests and ColdStarts are running totals.
	AccountsDone, AccountsTotal int
	ShardsDone, ShardsTotal     int
	Requests, ColdStarts        int
}

// fold is everything the dashboards print, derived by Finalize.
type fold struct {
	accounts, shards int
	seed             int64
	span             time.Duration

	requests, coldStarts int
	// shardRequests is each shard's request count, ascending.
	shardRequests []int
	// red is the per-service fleet RED table, most-requested first.
	red []nsRollup
	// spend is the per-account cost gauges, ascending.
	spend []float64
	// top is the topN most expensive accounts.
	top []AccountObservation

	phases                     PhaseTimings
	installHostNs, drainHostNs int64

	// The fleet-wide trace rollup; traceMap and traceCrit are nil when
	// the run traced nothing.
	traceStats trace.StoreStats
	traceList  int64
	traceMap   *trace.ServiceMap
	traceCrit  *trace.CriticalProfile
}

// Tower is the fleet control tower. The engine calls Begin before the
// shard workers start and Finalize after they join; the workers call
// the Observe hooks, which write only the atomic progress counters.
type Tower struct {
	topN int

	// Live counters for Progress, updated atomically on the hot path.
	accountsTotal atomic.Int64
	shardsTotal   atomic.Int64
	accountsDone  atomic.Int64
	requestsDone  atomic.Int64
	coldDone      atomic.Int64
	shardsDone    atomic.Int64

	// seed and span are set by Begin, before the workers start.
	seed int64
	span time.Duration

	// f is the last run's fold, replaced whole by Finalize.
	f fold
}

// NewTower builds a control tower.
func NewTower(opts Options) *Tower {
	if opts.TopN <= 0 {
		opts.TopN = 5
	}
	return &Tower{topN: opts.TopN}
}

// Begin starts a run: it records the run's identity and resets the
// progress counters. The engine calls it before any worker starts.
func (t *Tower) Begin(accounts, shards int, seed int64, span time.Duration) {
	t.seed = seed
	t.span = span
	t.accountsTotal.Store(int64(accounts))
	t.shardsTotal.Store(int64(shards))
	t.accountsDone.Store(0)
	t.requestsDone.Store(0)
	t.coldDone.Store(0)
	t.shardsDone.Store(0)
}

// ObserveAccount reduces one completed account's stores to its record:
// svc is the account's CloudWatch store, and traces its X-Ray-sim
// store (nil when the run is untraced), priced with book. It reads the
// stores while the account is still hot in cache, rather than
// retaining them until Finalize. Safe for concurrent use: it writes
// only the progress counters.
func (t *Tower) ObserveAccount(svc *metrics.Service, traces *trace.Store, book *pricing.PriceBook, obs AccountObservation) *AccountRecord {
	rec := &AccountRecord{obs: obs}
	rec.services, rec.gaugeNanos = collectRollups(svc)
	if traces != nil {
		// The rollup reads bump the scanned dimension before Stats is
		// taken, so the dashboard's scan count includes them —
		// deterministically.
		rec.traceMap = traces.ServiceMap(book, time.Time{}, time.Time{})
		rec.traceCrit = traces.CriticalProfile(time.Time{}, time.Time{})
		rec.traceStats = traces.Stats()
		for _, u := range traces.Usage() {
			rec.traceList += book.ListPrice(u).Nanodollars()
		}
	}
	t.accountsDone.Add(1)
	t.requestsDone.Add(int64(obs.Requests))
	t.coldDone.Add(int64(obs.ColdStarts))
	return rec
}

// ObserveShard counts one drained shard.
func (t *Tower) ObserveShard() {
	t.shardsDone.Add(1)
}

// Progress snapshots the live counters.
func (t *Tower) Progress() Progress {
	return Progress{
		AccountsDone:  int(t.accountsDone.Load()),
		AccountsTotal: int(t.accountsTotal.Load()),
		ShardsDone:    int(t.shardsDone.Load()),
		ShardsTotal:   int(t.shardsTotal.Load()),
		Requests:      int(t.requestsDone.Load()),
		ColdStarts:    int(t.coldDone.Load()),
	}
}

// collectRollups reduces one account's CloudWatch series to sums. The
// series arrive in creation order — deterministic for a single-threaded
// account simulation — and the reduction preserves it, so two replays
// roll up to identical rows in identical order.
func collectRollups(svc *metrics.Service) (services []nsRollup, gaugeNanos float64) {
	// Everything written here is a local of this body (shard-private by
	// construction — the shardsafe analyzer checks); the interning map
	// is built once per account, never per sample.
	idx := make(map[string]int)
	for _, st := range svc.SeriesStats() {
		switch st.Metric {
		case metrics.MetricPlaneRequests, metrics.MetricPlaneErrors,
			metrics.MetricPlaneDenials, metrics.MetricPlaneLatencyMs,
			metrics.MetricPlaneCostNanos:
			// Plane series: fall through to the per-namespace row.
		case metrics.MetricAccountCostNanos:
			if st.Namespace == metrics.AccountNamespace {
				gaugeNanos = st.Max
			}
			continue
		default:
			continue
		}
		i, ok := idx[st.Namespace]
		if !ok {
			i = len(services)
			idx[st.Namespace] = i
			services = append(services, nsRollup{ns: st.Namespace})
		}
		r := &services[i]
		switch st.Metric {
		case metrics.MetricPlaneRequests:
			r.requests += st.Sum
		case metrics.MetricPlaneErrors:
			r.errors += st.Sum
		case metrics.MetricPlaneDenials:
			r.denials += st.Sum
		case metrics.MetricPlaneLatencyMs:
			r.latencyMs += st.Sum
		case metrics.MetricPlaneCostNanos:
			r.costNanos += st.Sum
		}
	}
	return services, gaugeNanos
}

// Finalize folds a finished run: its host-clock phase split, every
// account's record in account-index order, and each shard's request
// count in shard order (empty shards included). The engine calls it
// once, after the workers join. It derives everything the dashboards
// print from these inputs alone, replacing the previous run's fold.
func (t *Tower) Finalize(phases PhaseTimings, records []*AccountRecord, shardRequests []int) {
	f := fold{
		accounts:      len(records),
		shards:        len(shardRequests),
		seed:          t.seed,
		span:          t.span,
		shardRequests: append([]int(nil), shardRequests...),
		spend:         make([]float64, 0, len(records)),
		phases:        phases,
	}
	sort.Ints(f.shardRequests)

	// Merge the per-namespace rows account by account, in index order,
	// so float sums and the first-seen row order never depend on which
	// worker finished first.
	idx := make(map[string]int)
	obs := make([]AccountObservation, 0, len(records))
	for _, rec := range records {
		f.requests += rec.obs.Requests
		f.coldStarts += rec.obs.ColdStarts
		f.installHostNs += rec.obs.InstallHostNs
		f.drainHostNs += rec.obs.DrainHostNs
		obs = append(obs, rec.obs)
		f.spend = append(f.spend, rec.gaugeNanos)
		for _, r := range rec.services {
			j, ok := idx[r.ns]
			if !ok {
				j = len(f.red)
				idx[r.ns] = j
				f.red = append(f.red, nsRollup{ns: r.ns})
			}
			m := &f.red[j]
			m.requests += r.requests
			m.errors += r.errors
			m.denials += r.denials
			m.latencyMs += r.latencyMs
			m.costNanos += r.costNanos
		}
		f.traceStats.Decided += rec.traceStats.Decided
		f.traceStats.Kept += rec.traceStats.Kept
		f.traceStats.Stored += rec.traceStats.Stored
		f.traceStats.Scanned += rec.traceStats.Scanned
		f.traceList += rec.traceList
		if rec.traceMap != nil {
			if f.traceMap == nil {
				f.traceMap = &trace.ServiceMap{}
			}
			f.traceMap.Merge(rec.traceMap)
		}
		if rec.traceCrit != nil {
			if f.traceCrit == nil {
				f.traceCrit = &trace.CriticalProfile{}
			}
			f.traceCrit.Merge(rec.traceCrit)
		}
	}
	sort.Float64s(f.spend)

	// Most-requested service first; namespaces are unique, so the
	// order is total.
	sort.Slice(f.red, func(i, j int) bool {
		if f.red[i].requests != f.red[j].requests {
			return f.red[i].requests > f.red[j].requests
		}
		return f.red[i].ns < f.red[j].ns
	})

	// Top-N most expensive accounts by monthly cost, ties by fleet
	// index ascending.
	sort.Slice(obs, func(i, j int) bool {
		if obs[i].MonthlyCostNanos != obs[j].MonthlyCostNanos {
			return obs[i].MonthlyCostNanos > obs[j].MonthlyCostNanos
		}
		return obs[i].Index < obs[j].Index
	})
	f.top = slices.Clone(obs[:min(len(obs), t.topN)])
	t.f = f
}

// RenderDashboard renders the final control-tower table: shard
// spread, per-service fleet RED, the account-spend distribution, and
// the top-N most expensive accounts. Deterministic — safe to diff
// across replays.
func (t *Tower) RenderDashboard() string {
	f := &t.f
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fleet control tower — %d accounts, %d shards, seed %d, span %v\n",
		f.accounts, f.shards, f.seed, f.span)

	// Shard spread: the replay loop serves one event per request.
	fmt.Fprintf(&sb, "shards: %d events, %d requests, %d cold starts\n", f.requests, f.requests, f.coldStarts)
	if n := len(f.shardRequests); n > 0 {
		fmt.Fprintf(&sb, "  events/shard min %d  p50 %d  max %d\n",
			f.shardRequests[0], f.shardRequests[metrics.NearestRank(n, 50)], f.shardRequests[n-1])
	}

	if len(f.red) > 0 {
		var errTotal, denTotal float64
		sb.WriteString("service/op                     requests   errors  denials  avg-lat-ms          cost\n")
		for _, r := range f.red {
			avg := 0.0
			if r.requests > 0 {
				avg = r.latencyMs / r.requests
			}
			fmt.Fprintf(&sb, "%-28s %10.0f %8.0f %8.0f %11.3f  %12s\n",
				r.ns, r.requests, r.errors, r.denials, avg, dollars(r.costNanos))
			errTotal += r.errors
			denTotal += r.denials
		}
		fmt.Fprintf(&sb, "fleet totals: %.0f errors, %.0f denials\n", errTotal, denTotal)
	}

	// Account-spend distribution (span spend, the cost gauge).
	if n := len(f.spend); n > 0 {
		fmt.Fprintf(&sb, "account span spend: p50 %s  p99 %s  p99.9 %s\n",
			dollars(f.spend[metrics.NearestRank(n, 50)]),
			dollars(f.spend[metrics.NearestRank(n, 99)]),
			dollars(f.spend[metrics.NearestRank(n, 99.9)]))
	}

	if len(f.top) > 0 {
		fmt.Fprintf(&sb, "top %d accounts by monthly cost:\n", len(f.top))
		for _, o := range f.top {
			fmt.Fprintf(&sb, "  #%06d %-9s %6d req %4d cold  %s/mo\n",
				o.Index, o.Kind, o.Requests, o.ColdStarts, pricing.Money(o.MonthlyCostNanos))
		}
	}
	return sb.String()
}

// RenderTraceDashboard renders the fleet-wide trace rollup: sampling
// totals, the merged service map, and the merged critical-path
// profile. Empty when the run traced nothing (so untraced callers can
// print it unconditionally). Deterministic — check.sh diffs it across
// replays.
func (t *Tower) RenderTraceDashboard() string {
	f := &t.f
	if f.traceMap == nil && f.traceCrit == nil {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("\nFleet trace rollup — head-sampled (reservoir 1/s + 5%)\n")
	fmt.Fprintf(&sb, "sampling: %d decisions, %d kept, %d stored, %d scanned; x-ray list price %s\n",
		f.traceStats.Decided, f.traceStats.Kept, f.traceStats.Stored,
		f.traceStats.Scanned, pricing.Money(f.traceList))
	if f.traceMap != nil {
		sb.WriteString(f.traceMap.Render())
	}
	if f.traceCrit != nil {
		sb.WriteString(f.traceCrit.Render())
	}
	return sb.String()
}

// RenderHostPhases renders the host-clock phase split, or an
// explanatory line when no host clock was injected. Host timings vary
// run to run, so callers print this to stderr, keeping stdout
// replay-diffable.
func (t *Tower) RenderHostPhases() string {
	f := &t.f
	total := f.phases.ProfilesNs + f.phases.DrainNs + f.phases.AggregateNs
	if total == 0 && f.installHostNs == 0 && f.drainHostNs == 0 {
		return "host phases: no host clock injected (simulated run; timings are all zero)\n"
	}
	var sb strings.Builder
	sb.WriteString("host phases:\n")
	fmt.Fprintf(&sb, "  profiles   %12v\n", time.Duration(f.phases.ProfilesNs))
	fmt.Fprintf(&sb, "  drain      %12v\n", time.Duration(f.phases.DrainNs))
	fmt.Fprintf(&sb, "  aggregate  %12v\n", time.Duration(f.phases.AggregateNs))
	fmt.Fprintf(&sb, "  per-account split: install %v, request plane %v\n",
		time.Duration(f.installHostNs), time.Duration(f.drainHostNs))
	return sb.String()
}

// dollars renders a nanodollar float as a fixed-precision dollar
// string for the dashboard.
func dollars(nanos float64) string {
	return fmt.Sprintf("$%.6f", nanos/1e9)
}
