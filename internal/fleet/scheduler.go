package fleet

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet/telemetry"
	"repro/internal/workload"
)

// The scheduler is where the determinism contract is enforced
// mechanically. Accounts hash-partition into Config.Shards logical
// shards — a pure function of (Seed, account index, Shards), never of
// worker count. Workers pull whole shards off a channel and simulate
// that shard's accounts sequentially in index order. Because the shard
// assignment is fixed and each account writes only its own slot of the
// pre-sized outcome slice, the slice contents after the join are
// identical no matter which worker ran which shard, or in what order —
// worker count and goroutine scheduling can change only wall-clock
// time, never a byte of output.

// accountOutcome is one account's raw simulation product, deposited in
// the outcome slot owned by that account.
type accountOutcome struct {
	stats     AccountStats
	latencies []time.Duration
	samples   []reqSample
	err       error
}

// reqSample pairs one request's inter-request gap with whether it hit
// a cold container, feeding the gap-bucket histogram.
type reqSample struct {
	gap  time.Duration
	cold bool
}

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
// profile (account-index) order.
func runShards(cfg *Config, shared *core.Shared, profiles []workload.AccountProfile) []accountOutcome {
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
					drainShard(cfg, shared, profiles, shards[sid], sid, out)
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
	return out
}

// drainShard simulates one logical shard's accounts sequentially in
// index order, depositing each outcome in its owned slot, and reports
// the shard's virtual-time totals to the control tower.
func drainShard(cfg *Config, shared *core.Shared, profiles []workload.AccountProfile, shard []int, sid int, out []accountOutcome) {
	var sc telemetry.ShardCounters
	for _, pos := range shard {
		o := simulateAccount(cfg, shared, profiles[pos], pos)
		out[pos] = o
		if o.err != nil {
			continue
		}
		sc.Accounts++
		sc.Requests += o.stats.Requests
		sc.ColdStarts += o.stats.ColdStarts
		sc.Events += o.stats.Requests
		sc.HorizonNs += int64(cfg.Span)
	}
	if cfg.Tower != nil {
		cfg.Tower.ObserveShard(sid, sc)
	}
}
