// Package telemetry is the fleet control tower: the fleet engine
// observing itself through the same interned-handle metrics store the
// simulated clouds publish into. It has three layers.
//
// Engine self-telemetry: deterministic virtual-time counters per shard
// (arrivals served, accounts completed, requests simulated,
// cold starts, horizon drained), published under metrics.FleetNamespace.
// These are pure functions of the fleet's replay identity and are
// bit-identical across runs at any worker count.
//
// Cross-account rollups: each account's CloudWatch series (the
// plane.requests/errors/cost family and the cumulative account cost
// gauge) are collected the moment its simulation completes, then
// merged strictly in account-index order at Finalize — so fleet-level
// sums and percentiles never depend on the order workers finish.
//
// Host-time phase timers: install vs drain per account, and the run's
// profile/drain/aggregate phases, measured through metrics.HostNow.
// These read zero unless a host clock was injected (diyctl does; tests
// and simulated runs never do), so enabling the tower cannot move a
// ledger golden — the check.sh parity gate proves it.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloudsim/clock"
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
	// Slot is the account's position in the simulated sub-fleet (its
	// outcome-slice index); Index is its fleet position.
	Slot, Index int
	// Kind names the app the account ran.
	Kind string
	// Requests, ColdStarts, Events count workload arrivals served,
	// cold containers hit, and steps of the account's replay loop (one
	// per arrival served) over the span.
	Requests, ColdStarts, Events int
	// MonthlyCostNanos is the account's extrapolated monthly bill in
	// nanodollars.
	MonthlyCostNanos int64
	// InstallHostNs and DrainHostNs split the account's host-clock time
	// between NewCloud+app install and the request-plane replay.
	InstallHostNs, DrainHostNs int64
}

// TraceObservation is one account's X-Ray-sim rollup, reported after
// its simulation completes: the sampling counters, the span's x-ray
// list price, and the pre-reduced service map and critical-path
// profile the tower merges fleet-wide at Finalize. Everything here is
// virtual-time replay identity.
type TraceObservation struct {
	// Slot is the account's position in the simulated sub-fleet.
	Slot int
	// Decided, Kept, Stored, Scanned mirror trace.StoreStats.
	Decided, Kept, Stored, Scanned int64
	// ListNanos prices the account's x-ray usage (traces recorded +
	// scanned) at list price, in nanodollars.
	ListNanos int64
	// Map and Crit are the account's service map and critical-path
	// profile over its sampled traces.
	Map  *trace.ServiceMap
	Crit *trace.CriticalProfile
}

// traceCell is one account's trace slot; like accountCell, each is
// written by exactly one worker and read only after the workers join.
type traceCell struct {
	ok  bool
	obs TraceObservation
}

// ShardCounters accumulates one logical shard's virtual-time totals.
type ShardCounters struct {
	Accounts, Requests, ColdStarts, Events int
	// HorizonNs is the simulated time drained: Span per account.
	HorizonNs int64
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
	// completion; Requests, ColdStarts, Events are running totals.
	AccountsDone, AccountsTotal int
	ShardsDone, ShardsTotal     int
	Requests, ColdStarts        int
	Events                      int64
}

// accountRollup is the per-account reduction of its CloudWatch series:
// one row per plane namespace plus the final cost gauge.
type accountRollup struct {
	services   []nsRollup
	gaugeNanos float64
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

// accountCell is one account's slot in the tower; each is written by
// exactly one worker (the one simulating that account) and read only
// after the workers join.
type accountCell struct {
	ok     bool
	obs    AccountObservation
	rollup accountRollup
}

// Tower collects fleet self-telemetry. Observe hooks are called
// concurrently from shard workers; everything else runs before or
// after the workers, single-threaded.
type Tower struct {
	topN int

	// Live counters for Progress, updated atomically on the hot path.
	accountsDone atomic.Int64
	requestsDone atomic.Int64
	coldDone     atomic.Int64
	eventsDone   atomic.Int64
	shardsDone   atomic.Int64

	mu            sync.Mutex
	begun         bool
	final         bool
	accounts      int
	shards        int
	seed          int64
	span          time.Duration
	cells         []accountCell
	shardCells    []ShardCounters
	traceCells    []traceCell
	phases        PhaseTimings
	installHostNs int64
	drainHostNs   int64

	// Fleet-wide trace rollups, merged from traceCells in slot order
	// at Finalize; nil when the run traced nothing.
	traceMap    *trace.ServiceMap
	traceCrit   *trace.CriticalProfile
	traceTotals TraceObservation

	store *metrics.Service
}

// NewTower builds a control tower with its own metrics store.
func NewTower(opts Options) *Tower {
	if opts.TopN <= 0 {
		opts.TopN = 5
	}
	return &Tower{topN: opts.TopN, store: metrics.New()}
}

// Begin sizes the tower for a run. The engine calls it once, before
// any worker starts.
func (t *Tower) Begin(accounts, shards int, seed int64, span time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.begun = true
	t.accounts = accounts
	t.shards = shards
	t.seed = seed
	t.span = span
	t.cells = make([]accountCell, accounts)
	t.shardCells = make([]ShardCounters, shards)
	t.traceCells = make([]traceCell, accounts)
}

// ObserveAccount reports one completed account. svc is the account's
// CloudWatch store; its series are reduced here, while the account's
// cloud is still hot in cache, rather than retained until Finalize.
// Safe for concurrent use: each account owns its slot.
func (t *Tower) ObserveAccount(svc *metrics.Service, obs AccountObservation) {
	rollup := collectRollups(svc)
	t.mu.Lock()
	if obs.Slot >= 0 && obs.Slot < len(t.cells) {
		t.cells[obs.Slot] = accountCell{ok: true, obs: obs, rollup: rollup}
	}
	t.installHostNs += obs.InstallHostNs
	t.drainHostNs += obs.DrainHostNs
	t.mu.Unlock()
	t.accountsDone.Add(1)
	t.requestsDone.Add(int64(obs.Requests))
	t.coldDone.Add(int64(obs.ColdStarts))
	t.eventsDone.Add(int64(obs.Events))
}

// ObserveTraces reports one account's X-Ray-sim rollup. The map and
// profile arrive pre-reduced (the engine builds them while the
// account's store is hot), so this is one cell write. Safe for
// concurrent use: each account owns its slot.
func (t *Tower) ObserveTraces(obs TraceObservation) {
	t.mu.Lock()
	if obs.Slot >= 0 && obs.Slot < len(t.traceCells) {
		t.traceCells[obs.Slot] = traceCell{ok: true, obs: obs}
	}
	t.mu.Unlock()
}

// ObserveShard reports one drained shard's counters.
func (t *Tower) ObserveShard(shard int, sc ShardCounters) {
	t.mu.Lock()
	if shard >= 0 && shard < len(t.shardCells) {
		t.shardCells[shard] = sc
	}
	t.mu.Unlock()
	t.shardsDone.Add(1)
}

// ObservePhases records the run's host-clock phase split.
func (t *Tower) ObservePhases(p PhaseTimings) {
	t.mu.Lock()
	t.phases = p
	t.mu.Unlock()
}

// Progress snapshots the live counters.
func (t *Tower) Progress() Progress {
	t.mu.Lock()
	total, shards := t.accounts, t.shards
	t.mu.Unlock()
	return Progress{
		AccountsDone:  int(t.accountsDone.Load()),
		AccountsTotal: total,
		ShardsDone:    int(t.shardsDone.Load()),
		ShardsTotal:   shards,
		Requests:      int(t.requestsDone.Load()),
		ColdStarts:    int(t.coldDone.Load()),
		Events:        t.eventsDone.Load(),
	}
}

// collectRollups reduces one account's CloudWatch series to sums. The
// series arrive in creation order — deterministic for a single-threaded
// account simulation — and the reduction preserves it, so two replays
// roll up to identical rows in identical order.
func collectRollups(svc *metrics.Service) accountRollup {
	// Everything written here is a local of this body (shard-private by
	// construction — the shardsafe analyzer checks); the interning map
	// is built once per account, never per sample.
	var out accountRollup
	idx := make(map[string]int)
	for _, st := range svc.SeriesStats() {
		switch st.Metric {
		case metrics.MetricPlaneRequests, metrics.MetricPlaneErrors,
			metrics.MetricPlaneDenials, metrics.MetricPlaneLatencyMs,
			metrics.MetricPlaneCostNanos:
			// Plane series: fall through to the per-namespace row.
		case metrics.MetricAccountCostNanos:
			if st.Namespace == metrics.AccountNamespace {
				out.gaugeNanos = st.Max
			}
			continue
		default:
			continue
		}
		i, ok := idx[st.Namespace]
		if !ok {
			i = len(out.services)
			idx[st.Namespace] = i
			out.services = append(out.services, nsRollup{ns: st.Namespace})
		}
		r := &out.services[i]
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
	return out
}

// Finalize merges the per-account cells into fleet-level series,
// strictly in account-index order, and publishes the shard counters.
// The engine calls it once, after the workers join.
func (t *Tower) Finalize() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.final || !t.begun {
		return
	}
	t.final = true
	end := clock.Epoch.Add(t.span)

	// Per-shard virtual-time counters, one sample per shard in shard
	// order.
	for i := range t.shardCells {
		sc := &t.shardCells[i]
		at := end
		t.store.Record(metrics.FleetNamespace, metrics.MetricFleetShardEvents, at, float64(sc.Events))
		t.store.Record(metrics.FleetNamespace, metrics.MetricFleetShardAccounts, at, float64(sc.Accounts))
		t.store.Record(metrics.FleetNamespace, metrics.MetricFleetShardRequests, at, float64(sc.Requests))
		t.store.Record(metrics.FleetNamespace, metrics.MetricFleetShardCold, at, float64(sc.ColdStarts))
		t.store.Record(metrics.FleetNamespace, metrics.MetricFleetHorizonNs, at, float64(sc.HorizonNs))
	}

	// Fleet rollups of the plane series, merged account by account in
	// index order into "fleet/<service>/<op>" namespaces, plus the
	// per-account cost-gauge distribution under FleetNamespace.
	idx := make(map[string]int)
	var merged []nsRollup
	for i := range t.cells {
		c := &t.cells[i]
		if !c.ok {
			continue
		}
		for _, r := range c.rollup.services {
			j, ok := idx[r.ns]
			if !ok {
				j = len(merged)
				idx[r.ns] = j
				merged = append(merged, nsRollup{ns: r.ns})
			}
			m := &merged[j]
			m.requests += r.requests
			m.errors += r.errors
			m.denials += r.denials
			m.latencyMs += r.latencyMs
			m.costNanos += r.costNanos
		}
		t.store.Record(metrics.FleetNamespace, metrics.MetricAccountCostNanos, end, c.rollup.gaugeNanos)
	}
	for _, m := range merged {
		ns := "fleet/" + m.ns
		t.store.Record(ns, metrics.MetricPlaneRequests, end, m.requests)
		t.store.Record(ns, metrics.MetricPlaneErrors, end, m.errors)
		t.store.Record(ns, metrics.MetricPlaneDenials, end, m.denials)
		t.store.Record(ns, metrics.MetricPlaneLatencyMs, end, m.latencyMs)
		t.store.Record(ns, metrics.MetricPlaneCostNanos, end, m.costNanos)
	}

	// Fleet-wide trace rollup: merge the per-account service maps and
	// critical-path profiles strictly in slot order, so node, edge and
	// step order never depend on worker finish order.
	for i := range t.traceCells {
		c := &t.traceCells[i]
		if !c.ok {
			continue
		}
		t.traceTotals.Decided += c.obs.Decided
		t.traceTotals.Kept += c.obs.Kept
		t.traceTotals.Stored += c.obs.Stored
		t.traceTotals.Scanned += c.obs.Scanned
		t.traceTotals.ListNanos += c.obs.ListNanos
		if c.obs.Map != nil {
			if t.traceMap == nil {
				t.traceMap = &trace.ServiceMap{}
			}
			t.traceMap.Merge(c.obs.Map)
		}
		if c.obs.Crit != nil {
			if t.traceCrit == nil {
				t.traceCrit = &trace.CriticalProfile{}
			}
			t.traceCrit.Merge(c.obs.Crit)
		}
	}
}

// fleetRED is one row of the dashboard's per-service table.
type fleetRED struct {
	ns        string
	requests  float64
	errors    float64
	denials   float64
	latencyMs float64
	costNanos float64
}

// RenderDashboard renders the final control-tower table: shard
// spread, per-service fleet RED, the account-spend distribution, and
// the top-N most expensive accounts. Deterministic — safe to diff
// across replays.
func (t *Tower) RenderDashboard() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fleet control tower — %d accounts, %d shards, seed %d, span %v\n",
		t.accounts, t.shards, t.seed, t.span)

	// Shard spread: virtual-time totals and the per-shard distribution.
	var evTotal, reqTotal, coldTotal int
	for i := range t.shardCells {
		evTotal += t.shardCells[i].Events
		reqTotal += t.shardCells[i].Requests
		coldTotal += t.shardCells[i].ColdStarts
	}
	fmt.Fprintf(&sb, "shards: %d events, %d requests, %d cold starts\n", evTotal, reqTotal, coldTotal)
	if len(t.shardCells) > 0 {
		fmt.Fprintf(&sb, "  events/shard min %.0f  p50 %.0f  max %.0f\n",
			t.store.Min(metrics.FleetNamespace, metrics.MetricFleetShardEvents, time.Time{}, time.Time{}),
			t.store.Percentile(metrics.FleetNamespace, metrics.MetricFleetShardEvents, time.Time{}, time.Time{}, 50),
			t.store.Max(metrics.FleetNamespace, metrics.MetricFleetShardEvents, time.Time{}, time.Time{}))
	}

	// Per-service fleet RED, most-requested first (ties by name).
	rows := t.redRowsLocked()
	if len(rows) > 0 {
		var errTotal, denTotal float64
		sb.WriteString("service/op                     requests   errors  denials  avg-lat-ms          cost\n")
		for _, r := range rows {
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
	if t.store.Count(metrics.FleetNamespace, metrics.MetricAccountCostNanos, time.Time{}, time.Time{}) > 0 {
		fmt.Fprintf(&sb, "account span spend: p50 %s  p99 %s  p99.9 %s\n",
			dollars(t.store.Percentile(metrics.FleetNamespace, metrics.MetricAccountCostNanos, time.Time{}, time.Time{}, 50)),
			dollars(t.store.Percentile(metrics.FleetNamespace, metrics.MetricAccountCostNanos, time.Time{}, time.Time{}, 99)),
			dollars(t.store.Percentile(metrics.FleetNamespace, metrics.MetricAccountCostNanos, time.Time{}, time.Time{}, 99.9)))
	}

	// Top-N most expensive accounts by extrapolated monthly cost.
	top := t.topAccountsLocked()
	if len(top) > 0 {
		fmt.Fprintf(&sb, "top %d accounts by monthly cost:\n", len(top))
		for _, o := range top {
			fmt.Fprintf(&sb, "  #%06d %-9s %6d req %4d cold  %s/mo\n",
				o.Index, o.Kind, o.Requests, o.ColdStarts, pricing.Money(o.MonthlyCostNanos))
		}
	}
	return sb.String()
}

// redRowsLocked reads the fleet/<ns> rollup series back out of the
// store, sorted by request volume descending (ties by namespace).
// Caller holds t.mu.
func (t *Tower) redRowsLocked() []fleetRED {
	var rows []fleetRED
	for _, st := range t.store.SeriesStats() {
		if !strings.HasPrefix(st.Namespace, "fleet/") || st.Metric != metrics.MetricPlaneRequests {
			continue
		}
		ns := st.Namespace
		rows = append(rows, fleetRED{
			ns:        strings.TrimPrefix(ns, "fleet/"),
			requests:  st.Sum,
			errors:    t.store.Sum(ns, metrics.MetricPlaneErrors, time.Time{}, time.Time{}),
			denials:   t.store.Sum(ns, metrics.MetricPlaneDenials, time.Time{}, time.Time{}),
			latencyMs: t.store.Sum(ns, metrics.MetricPlaneLatencyMs, time.Time{}, time.Time{}),
			costNanos: t.store.Sum(ns, metrics.MetricPlaneCostNanos, time.Time{}, time.Time{}),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].requests != rows[j].requests {
			return rows[i].requests > rows[j].requests
		}
		return rows[i].ns < rows[j].ns
	})
	return rows
}

// topAccountsLocked returns the topN most expensive accounts, by
// monthly cost descending (ties by fleet index ascending). Caller
// holds t.mu.
func (t *Tower) topAccountsLocked() []AccountObservation {
	var obs []AccountObservation
	for i := range t.cells {
		if t.cells[i].ok {
			obs = append(obs, t.cells[i].obs)
		}
	}
	sort.Slice(obs, func(i, j int) bool {
		if obs[i].MonthlyCostNanos != obs[j].MonthlyCostNanos {
			return obs[i].MonthlyCostNanos > obs[j].MonthlyCostNanos
		}
		return obs[i].Index < obs[j].Index
	})
	if len(obs) > t.topN {
		obs = obs[:t.topN]
	}
	return obs
}

// RenderTraceDashboard renders the fleet-wide trace rollup: sampling
// totals, the merged service map, and the merged critical-path
// profile. Empty when the run traced nothing (so untraced callers can
// print it unconditionally). Deterministic — check.sh diffs it across
// replays.
func (t *Tower) RenderTraceDashboard() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.traceMap == nil && t.traceCrit == nil {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("\nFleet trace rollup — head-sampled (reservoir 1/s + 5%)\n")
	fmt.Fprintf(&sb, "sampling: %d decisions, %d kept, %d stored, %d scanned; x-ray list price %s\n",
		t.traceTotals.Decided, t.traceTotals.Kept, t.traceTotals.Stored,
		t.traceTotals.Scanned, pricing.Money(t.traceTotals.ListNanos))
	if t.traceMap != nil {
		sb.WriteString(t.traceMap.Render())
	}
	if t.traceCrit != nil {
		sb.WriteString(t.traceCrit.Render())
	}
	return sb.String()
}

// RenderHostPhases renders the host-clock phase split, or an
// explanatory line when no host clock was injected. Host timings vary
// run to run, so callers print this to stderr, keeping stdout
// replay-diffable.
func (t *Tower) RenderHostPhases() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := t.phases.ProfilesNs + t.phases.DrainNs + t.phases.AggregateNs
	if total == 0 && t.installHostNs == 0 && t.drainHostNs == 0 {
		return "host phases: no host clock injected (simulated run; timings are all zero)\n"
	}
	var sb strings.Builder
	sb.WriteString("host phases:\n")
	fmt.Fprintf(&sb, "  profiles   %12v\n", time.Duration(t.phases.ProfilesNs))
	fmt.Fprintf(&sb, "  drain      %12v\n", time.Duration(t.phases.DrainNs))
	fmt.Fprintf(&sb, "  aggregate  %12v\n", time.Duration(t.phases.AggregateNs))
	fmt.Fprintf(&sb, "  per-account split: install %v, request plane %v\n",
		time.Duration(t.installHostNs), time.Duration(t.drainHostNs))
	return sb.String()
}

// dollars renders a nanodollar float as a fixed-precision dollar
// string for the dashboard.
func dollars(nanos float64) string {
	return fmt.Sprintf("$%.6f", nanos/1e9)
}
