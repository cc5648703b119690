package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/cloudsim/metrics"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/fleet/telemetry"
	"repro/internal/pricing"
	"repro/internal/workload"
)

// A workload's inputs are a fixed population (accounts or operators)
// drawn from the seed, served in chunks. A pass serves every chunk
// once, so each pass does exactly the same work, and the timed phase
// is a whole number of passes.

// size scales a workload. The benchmark runs at full size; the smoke
// tests divide every population by 50 and pin the worker count.
type size struct {
	div     int // population divisor; 0 or 1 is full size
	workers int // fleet worker goroutines; 0 is GOMAXPROCS
	timings int // kernel timings per phase; 0 is timingsPerPhase
}

func (s size) of(n int) int {
	if s.div <= 1 {
		return n
	}
	return max(1, n/s.div)
}

// The untimed warm-up serves 1/warmShare of a population.
const warmShare = 50

// round is the outcome of serving one chunk.
type round struct {
	chunk     int
	accounts  int // accounts (operators) served
	requests  int // simulated requests served
	attempted int // operations attempted: accounts, or requests + dashboard reads
	failed    int
	// Host wall time, process CPU and heap allocation of the timed
	// sections only.
	wall, cpu                time.Duration
	allocBytes, allocObjects uint64
	digest                   string
	cold                     int
	usage                    map[pricing.Kind]float64 // metered usage; traced rounds only
	op                       *opStats                 // operator_day only
	err                      error
}

// runner serves one seed's inputs.
type runner interface {
	chunks() int
	// warm serves about 2% of the population, untimed.
	warm() error
	// run serves one chunk. traced turns on what only the per-layer
	// ledger needs: fleet ledger capture and operator plane timers.
	run(chunk int, traced bool) round
}

type workloadDef struct {
	name string
	// serial workloads keep one goroutine busy, so the reference
	// kernel runs on one too.
	serial bool
	// prepare builds a seed's inputs: everything the timed phase
	// consumes that the benchmark, not the system, generates.
	prepare func(seed int64, sz size) (runner, error)
}

var workloads = []workloadDef{
	// diyctl fleet's defaults (1,000 accounts, 30 minutes, control
	// tower, host clock), over eight consecutive slices of one seed's
	// fleet.
	{"fleet_default", false, fleetWorkload(fleetShape{population: 8000, chunk: 1000, span: 30 * time.Minute, tower: true})},
	// Many accounts that each live two simulated minutes: account
	// install and per-account RNG seeding dominate.
	{"fleet_churn", false, fleetWorkload(fleetShape{population: 100000, chunk: 10000, span: 2 * time.Minute})},
	// Few chat accounts over four hours: the sealed room doc grows
	// toward its 64 KB chunk limit.
	{"chat_history", false, fleetWorkload(fleetShape{population: 128, chunk: 32, span: 4 * time.Hour, chatOnly: true})},
	// One DIY operator per cloud, every telemetry store written and read.
	{"operator_day", true, operatorWorkload(200, 10)},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// untimedLabel marks harness work between timed sections; the traced
// run's CPU profile leaves those samples out.
const untimedLabel = "diybench"

func untimed(fn func()) {
	pprof.Do(context.Background(), pprof.Labels(untimedLabel, "untimed"), func(context.Context) { fn() })
}

// digest is a short, stable fingerprint of a chunk's user-visible
// output.
func digest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s)) // hash writes never fail
	return fmt.Sprintf("%016x", h.Sum64())
}

type fleetShape struct {
	population, chunk int
	span              time.Duration
	tower             bool
	// chatOnly serves the first chat-kind accounts of the seed's
	// default fleet, in index order, through Config.Profile.
	chatOnly bool
}

type fleetRunner struct {
	shape    fleetShape
	seed     int64
	workers  int
	profiles []workload.AccountProfile // chatOnly: the selected accounts
}

func fleetWorkload(shape fleetShape) func(int64, size) (runner, error) {
	return func(seed int64, sz size) (runner, error) {
		s := shape
		s.population = sz.of(shape.population)
		s.chunk = sz.of(shape.chunk)
		f := &fleetRunner{shape: s, seed: seed, workers: sz.workers}
		if s.chatOnly {
			for i := 0; len(f.profiles) < s.population; i++ {
				if p := workload.Profile(seed, i); p.Kind == workload.KindChat {
					f.profiles = append(f.profiles, p)
				}
			}
		}
		if s.tower {
			// As diyctl fleet does: real host-clock phase timers, which
			// also makes the metrics interceptor time itself.
			metrics.SetHostClock(func() int64 { return time.Now().UnixNano() })
		}
		return f, nil
	}
}

func (f *fleetRunner) chunks() int {
	return (f.shape.population + f.shape.chunk - 1) / f.shape.chunk
}

// index is the fleet index of the population's i-th account.
func (f *fleetRunner) index(i int) int {
	if f.profiles != nil {
		return f.profiles[i].Index
	}
	return i
}

func (f *fleetRunner) config(first, n int, traced bool) fleet.Config {
	cfg := fleet.Config{
		Accounts:       n,
		MaxSimulated:   n,
		Seed:           f.seed,
		Span:           f.shape.span,
		Workers:        f.workers,
		CaptureLedgers: traced,
		Profile: func(base int64, i int) workload.AccountProfile {
			if f.profiles != nil {
				return f.profiles[first+i]
			}
			return workload.Profile(base, first+i)
		},
	}
	if f.shape.tower {
		cfg.Tower = telemetry.NewTower(telemetry.Options{})
	}
	return cfg
}

func (f *fleetRunner) warm() error {
	_, err := experiments.RunFleet(f.config(0, max(1, f.shape.population/warmShare), false))
	return err
}

func (f *fleetRunner) run(chunk int, traced bool) round {
	first := chunk * f.shape.chunk
	n := min(f.shape.chunk, f.shape.population-first)
	r := round{chunk: chunk, accounts: n, attempted: n}
	cfg := f.config(first, n, traced)

	sw := startWatch()
	rep, err := experiments.RunFleet(cfg)
	var out strings.Builder
	if err == nil {
		out.WriteString(rep.Render())
		out.WriteString(rep.RenderAccounts())
		out.WriteString(rep.RawFingerprint())
		if cfg.Tower != nil {
			out.WriteString(cfg.Tower.RenderDashboard())
		}
	}
	sw.stopInto(&r)

	untimed(func() {
		if err == nil {
			err = f.check(rep.Result, first, n)
		}
		if err == nil && traced {
			r.usage, err = ledgerUsage(rep.Result.PerAccount)
		}
		if err != nil {
			r.failed = n
			r.err = fmt.Errorf("chunk %d: %w", chunk, err)
			return
		}
		r.requests = rep.Result.TotalRequests
		r.cold = rep.Result.TotalColdStarts
		r.digest = digest(out.String())
	})
	return r
}

// check holds the invariants every seed must satisfy; digests pin the
// rest for seeds 1 and 2.
func (f *fleetRunner) check(res *fleet.Result, first, n int) error {
	if res.Simulated != n || len(res.PerAccount) != n {
		return fmt.Errorf("simulated %d accounts (%d outcomes), want %d", res.Simulated, len(res.PerAccount), n)
	}
	sum := 0
	for i, a := range res.PerAccount {
		if want := f.index(first + i); a.Index != want {
			return fmt.Errorf("outcome %d is account %d, want %d", i, a.Index, want)
		}
		if f.shape.chatOnly && a.Kind != workload.KindChat {
			return fmt.Errorf("account %d ran %v, want chat", a.Index, a.Kind)
		}
		sum += a.Requests
	}
	if sum != res.TotalRequests || sum == 0 {
		return fmt.Errorf("per-account requests sum to %d, total %d", sum, res.TotalRequests)
	}
	return nil
}

// ledgerUsage sums captured ledgers ("kind\tresource\tapp\tquantity"
// lines) by usage kind.
func ledgerUsage(accounts []fleet.AccountStats) (map[pricing.Kind]float64, error) {
	out := make(map[pricing.Kind]float64)
	for _, a := range accounts {
		for _, line := range strings.Split(strings.TrimSuffix(a.Ledger, "\n"), "\n") {
			f := strings.Split(line, "\t")
			if len(f) != 4 {
				return nil, fmt.Errorf("account %d: malformed ledger line %q", a.Index, line)
			}
			q, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				return nil, fmt.Errorf("account %d: ledger quantity: %w", a.Index, err)
			}
			out[pricing.Kind(f[0])] += q
		}
	}
	return out, nil
}
