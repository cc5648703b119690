package fleet

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/fleet/telemetry"
	"repro/internal/workload"
)

// The scheduler is where the determinism contract is enforced
// mechanically. Accounts hash-partition into Config.Shards logical
// shards — a pure function of (Seed, account index, Shards), never of
// worker count. Workers pull whole shards off a channel and simulate
// that shard's accounts sequentially in index order. Because the shard
// assignment is fixed, each account writes only its own slot of the
// pre-sized outcome slice and each shard only its own slot of the
// tally slice, the slices' contents after the join are identical no
// matter which worker ran which shard, or in what order — worker count
// and goroutine scheduling can change only wall-clock time, never a
// byte of output.

// accountOutcome is one account's result, deposited in the outcome
// slot owned by that account.
type accountOutcome struct {
	stats AccountStats
	err   error
	// tower is the control tower's reduction of the account's stores;
	// nil when no tower is attached.
	tower *telemetry.AccountRecord
}

// shardTally is what one shard worker drained, kept per shard rather
// than per account: a churn account serves about 1.4 requests, so
// per-account buffers and counts would cost more than the requests
// they describe. Run folds the tallies in shard order after the
// barrier.
type shardTally struct {
	// latencies holds the shard's request latencies in drain order.
	latencies []time.Duration
	// gaps counts the shard's requests and cold starts by
	// inter-request-gap band (see bucketFor).
	gaps gapCounts
}

// gapCounts counts requests and cold starts per gap band.
type gapCounts [numGapBands]struct{ requests, cold int }

// shardOf assigns an account index to a logical shard: splitmix-mixed
// so adjacent indices spread across shards, seeded so distinct fleets
// partition differently, and independent of worker count by
// construction.
func shardOf(seed int64, index, shards int) int {
	root := uint64(workload.AccountSeed(seed, index))
	return int(root % uint64(shards))
}

// workers resolves the worker-goroutine count.
func workers(cfg *Config) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runShards simulates every profile and returns the outcomes in
// profile (account-index) order and one tally per shard, in shard
// order.
func runShards(cfg *Config, shared *sharedState, profiles []workload.AccountProfile) ([]accountOutcome, []shardTally) {
	// Group profile positions by shard, preserving index order within
	// each shard.
	shards := make([][]int, cfg.Shards)
	for pos, p := range profiles {
		s := shardOf(cfg.Seed, p.Index, cfg.Shards)
		shards[s] = append(shards[s], pos)
	}

	// Precomputed pprof label values, so the hot loop never formats.
	shardNames := make([]string, cfg.Shards)
	for i := range shardNames {
		shardNames[i] = fmt.Sprintf("%03d", i)
	}

	out := make([]accountOutcome, len(profiles))
	tallies := make([]shardTally, cfg.Shards)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := workers(cfg); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sid := range jobs {
				// Label the whole shard drain for CPU profiles: samples
				// attribute to their shard, and within it to the
				// install/drain phase set per account.
				pprof.Do(context.Background(), pprof.Labels("shard", shardNames[sid]), func(context.Context) {
					tallies[sid] = drainShard(cfg, shared, profiles, shards[sid], out)
				})
			}
		}()
	}
	for sid, shard := range shards {
		if len(shard) > 0 {
			jobs <- sid
		}
	}
	close(jobs)
	wg.Wait()
	return out, tallies
}

// drainShard simulates one logical shard's accounts sequentially in
// index order, depositing each outcome in its owned slot, and returns
// the shard's tally.
func drainShard(cfg *Config, shared *sharedState, profiles []workload.AccountProfile, shard []int, out []accountOutcome) shardTally {
	var t shardTally
	for _, pos := range shard {
		var gaps gapCounts
		out[pos], gaps, t.latencies = simulateAccount(cfg, shared, profiles[pos], t.latencies)
		for b, g := range gaps {
			t.gaps[b].requests += g.requests
			t.gaps[b].cold += g.cold
		}
	}
	if cfg.Tower != nil {
		cfg.Tower.ObserveShard()
	}
	return t
}
