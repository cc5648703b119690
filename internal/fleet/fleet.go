// Package fleet scales the single-account simulator to the paper's
// premise: millions of people, each running their own DIY serverless
// deployment. It replays N independent accounts — each with its own
// Cloud, meter, virtual clock, and partitioned PRNG streams, its
// Poisson arrivals served in order by one plain loop — hash-partitioned
// into a fixed number of logical shards that run on however many
// worker goroutines the host offers.
//
// The determinism contract: a fleet run is a pure function of
// (Accounts, MaxSimulated, Seed, Span, Shards) and replays
// bit-identically regardless of Workers or GOMAXPROCS. Accounts never
// interact. Each account's outcome lands in a slice slot it alone
// owns, and each shard worker counts its requests into one tally it
// alone owns. After the workers join, Run folds the outcomes in
// account-index order and the tallies in shard order, once; every
// cross-account aggregate is order-insensitive or made so by that
// fold (the latencies are sorted). Fleets larger than MaxSimulated are
// sampled by a deterministic stride and extrapolated — and the scaling
// is always reported, never silent.
package fleet

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/cloudsim/metrics"
	"repro/internal/fleet/telemetry"
	"repro/internal/pricing"
	"repro/internal/workload"
)

// Config parameterizes a fleet run. The zero value is usable: a
// 1,000-account fleet over 30 simulated minutes.
type Config struct {
	// Accounts is the fleet size the run models (default 1,000). Sizes
	// above MaxSimulated are sampled, with the scaling reported in
	// Result.ScalingNote.
	Accounts int
	// MaxSimulated caps the number of accounts actually simulated
	// (default 10,000).
	MaxSimulated int
	// Seed is the fleet master seed every per-account stream partition
	// derives from (default 1).
	Seed int64
	// Span is each account's simulated activity window, starting at
	// clock.Epoch (default 30 minutes).
	Span time.Duration
	// Shards is the number of logical shards accounts hash-partition
	// into (default 64). It is part of the replay identity — results
	// are independent of Workers, not of Shards.
	Shards int
	// Workers is the number of worker goroutines draining shards
	// (default GOMAXPROCS). It never affects results.
	Workers int
	// Book overrides the price book (Default2017 if nil).
	Book *pricing.PriceBook
	// CaptureLedgers keeps each simulated account's full metered
	// ledger on its AccountStats — parity tests use it; large fleets
	// should leave it off.
	CaptureLedgers bool
	// Trace turns on per-account head-sampled distributed tracing:
	// each account's cloud gets an X-Ray-sim store whose sampler
	// (reservoir 1/s + 5%, the X-Ray default rule) is seeded from
	// workload.Substream(profile.Seed, "trace"), and every workload
	// request runs under a TracedContext. Tracing is read-only over
	// the economy — the trace parity test pins ledger goldens
	// bit-identical with it on. Pair with Tower to roll the sampled
	// traces into fleet-wide service maps and critical-path profiles.
	Trace bool
	// Profile overrides the account-profile distribution (tests use it
	// to pin identical seeds on two accounts). Nil means
	// workload.Profile.
	Profile func(base int64, index int) workload.AccountProfile
	// Tower, when non-nil, turns on the fleet control tower: engine
	// self-telemetry, per-account CloudWatch observability, and
	// cross-account rollups. It never affects results — the telemetry
	// parity test pins ledger goldens bit-identical with it on.
	Tower *telemetry.Tower
}

// AccountStats is one simulated account's outcome.
type AccountStats struct {
	// Index is the account's fleet position.
	Index int
	// Kind is the app the account ran.
	Kind workload.AppKind
	// Requests is the number of workload arrivals served in the span.
	Requests int
	// ColdStarts counts requests that hit a cold Lambda container.
	ColdStarts int
	// MonthlyCost is the span's metered usage priced at list price (no
	// free tier — the marginal-cost view) and extrapolated to the
	// 30-day month.
	MonthlyCost pricing.Money
	// Ledger is the account's full metered ledger; "" unless
	// Config.CaptureLedgers.
	Ledger string
}

// GapBucket aggregates cold-start behaviour over one inter-request-gap
// band — the fleet extension of Figure 1's cold-start story, with the
// Lambda warm-container TTL as the knee.
type GapBucket struct {
	// Label names the band, e.g. "2m-5m".
	Label string
	// UpTo is the band's exclusive upper bound (0 for the open tail).
	UpTo time.Duration
	// Requests and ColdStarts count simulated requests whose gap since
	// the account's previous request fell in the band.
	Requests   int
	ColdStarts int
}

// Result is a fleet run's aggregate outcome. Everything here is
// bit-identical across replays at any worker count.
type Result struct {
	// Accounts echoes the modelled fleet size; Simulated is how many
	// accounts actually ran (less than Accounts when sampled).
	Accounts  int
	Simulated int
	// ScaleFactor is Accounts/Simulated, the extrapolation multiplier
	// for fleet-wide totals.
	ScaleFactor float64
	// ScalingNote is non-empty whenever Simulated < Accounts: sampling
	// is always reported, never silent.
	ScalingNote string
	// Seed, Span, Shards echo the replay identity.
	Seed   int64
	Span   time.Duration
	Shards int

	// PerAccount holds each simulated account's outcome in account
	// order.
	PerAccount []AccountStats
	// Latencies is every simulated request's end-to-end latency, in
	// ascending order.
	Latencies []time.Duration
	// GapBuckets is the cold-start-fraction-vs-inter-request-gap
	// histogram over all simulated requests.
	GapBuckets []GapBucket
	// MixCounts counts simulated accounts by app kind.
	MixCounts [workload.NumKinds]int
	// TotalRequests and TotalColdStarts sum over simulated accounts
	// (multiply by ScaleFactor for the modelled fleet).
	TotalRequests   int
	TotalColdStarts int

	// sortedCosts is the per-account monthly costs in ascending order:
	// reports ask for three or more percentiles of them.
	sortedCosts []pricing.Money
}

// month is the simulator's billing month (matching pricing's 30-day
// convention), used to extrapolate span usage to a monthly bill.
const month = 30 * 24 * time.Hour

// gapBounds are the inter-request-gap band edges. The 5-minute edge is
// the Lambda warm-container TTL: the curve's knee.
var gapBounds = [...]time.Duration{
	time.Minute,
	2 * time.Minute,
	5 * time.Minute,
	10 * time.Minute,
	30 * time.Minute,
}

// numGapBands counts the histogram's bands: one below each edge and
// the open tail.
const numGapBands = len(gapBounds) + 1

// newGapBuckets builds the empty histogram.
func newGapBuckets() []GapBucket {
	out := make([]GapBucket, 0, numGapBands)
	prev := time.Duration(0)
	for _, b := range gapBounds {
		out = append(out, GapBucket{Label: fmt.Sprintf("%v-%v", prev, b), UpTo: b})
		prev = b
	}
	out[0].Label = fmt.Sprintf("<%v", gapBounds[0])
	out = append(out, GapBucket{Label: fmt.Sprintf(">%v", prev), UpTo: 0})
	return out
}

// bucketFor returns the histogram index for a gap.
func bucketFor(gap time.Duration) int {
	for i, b := range gapBounds {
		if gap < b {
			return i
		}
	}
	return len(gapBounds)
}

// Run executes the fleet and aggregates its results deterministically.
func Run(cfg Config) (*Result, error) {
	if cfg.Accounts <= 0 {
		cfg.Accounts = 1000
	}
	if cfg.MaxSimulated <= 0 {
		cfg.MaxSimulated = 10000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Span <= 0 {
		cfg.Span = 30 * time.Minute
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 64
	}
	if cfg.Book == nil {
		cfg.Book = pricing.Default2017()
	}
	profileFn := cfg.Profile
	if profileFn == nil {
		profileFn = workload.Profile
	}

	// Sample oversized fleets by a deterministic stride over account
	// indices, so the sampled sub-fleet of a given size is always the
	// same set of accounts.
	stride := 1
	if cfg.Accounts > cfg.MaxSimulated {
		stride = int(math.Ceil(float64(cfg.Accounts) / float64(cfg.MaxSimulated)))
	}
	// Host-clock phase marks: all zero (and so all phase timings zero)
	// unless a host clock was injected via metrics.SetHostClock, which
	// simulated runs never do.
	hostProfiles := metrics.HostNow()
	var profiles []workload.AccountProfile
	for i := 0; i < cfg.Accounts; i += stride {
		profiles = append(profiles, profileFn(cfg.Seed, i))
	}
	if cfg.Tower != nil {
		cfg.Tower.Begin(len(profiles), cfg.Shards, cfg.Seed, cfg.Span)
	}

	res := &Result{
		Accounts:    cfg.Accounts,
		Simulated:   len(profiles),
		ScaleFactor: float64(cfg.Accounts) / float64(len(profiles)),
		Seed:        cfg.Seed,
		Span:        cfg.Span,
		Shards:      cfg.Shards,
		GapBuckets:  newGapBuckets(),
	}
	if stride > 1 {
		res.ScalingNote = fmt.Sprintf(
			"sampled: simulating %d of %d accounts (every %dth); fleet totals extrapolate ×%.1f",
			res.Simulated, cfg.Accounts, stride, res.ScaleFactor)
	}

	// The immutable cross-account state: one price book, one
	// attestation keypair and one install plan per app kind for the
	// whole fleet.
	shared, err := newSharedState(cfg.Book)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}

	hostDrain := metrics.HostNow()
	outcomes, tallies := runShards(&cfg, shared, profiles)
	hostAggregate := metrics.HostNow()

	// Aggregation, after the barrier: outcomes in account-index order
	// (errors resolve deterministically to the lowest-indexed failure),
	// then the shard tallies in shard order.
	costs := make([]pricing.Money, 0, len(outcomes))
	for _, o := range outcomes {
		if o.err != nil {
			return nil, fmt.Errorf("fleet: %w", o.err)
		}
		res.PerAccount = append(res.PerAccount, o.stats)
		res.MixCounts[o.stats.Kind]++
		res.TotalRequests += o.stats.Requests
		res.TotalColdStarts += o.stats.ColdStarts
		costs = append(costs, o.stats.MonthlyCost)
	}
	res.Latencies = make([]time.Duration, 0, res.TotalRequests)
	for i := range tallies {
		t := &tallies[i]
		res.Latencies = append(res.Latencies, t.latencies...)
		for b, g := range t.gaps {
			res.GapBuckets[b].Requests += g.requests
			res.GapBuckets[b].ColdStarts += g.cold
		}
	}
	// Sort the percentile inputs once, here, so every later
	// Cost/LatencyPercentile query is a single indexed read.
	slices.Sort(res.Latencies)
	slices.Sort(costs)
	res.sortedCosts = costs

	if cfg.Tower != nil {
		records := make([]*telemetry.AccountRecord, len(outcomes))
		for i := range outcomes {
			records[i] = outcomes[i].tower
		}
		shardRequests := make([]int, len(tallies))
		for i := range tallies {
			shardRequests[i] = len(tallies[i].latencies)
		}
		cfg.Tower.Finalize(telemetry.PhaseTimings{
			ProfilesNs:  hostDrain - hostProfiles,
			DrainNs:     hostAggregate - hostDrain,
			AggregateNs: metrics.HostNow() - hostAggregate,
		}, records, shardRequests)
	}
	return res, nil
}

// CostPercentile reports the p-th percentile (nearest-rank) of the
// per-account monthly cost distribution.
func (r *Result) CostPercentile(p float64) pricing.Money {
	return percentile(r.sortedCosts, p)
}

// LatencyPercentile reports the p-th percentile (nearest-rank) of the
// fleet-wide request latency distribution.
func (r *Result) LatencyPercentile(p float64) time.Duration {
	return percentile(r.Latencies, p)
}
