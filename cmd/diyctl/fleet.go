package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/cloudsim/metrics"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/fleet/telemetry"
)

// fleetDemo runs the fleet-scale experiment: N independent DIY
// accounts, each its own simulated cloud, replayed deterministically
// across all cores. With telemetry on (the default) the fleet control
// tower renders cross-account rollups after the run report; everything
// host-time-dependent (live -watch progress, phase timings) goes to
// stderr so stdout stays bit-identical across replays — check.sh diffs
// it.
func fleetDemo(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	accounts := fs.Int("accounts", 1000, "fleet size to model")
	span := fs.Duration("span", 30*time.Minute, "simulated activity window per account")
	seed := fs.Int64("seed", 1, "fleet master seed")
	maxSim := fs.Int("max-simulated", 10000, "cap on accounts actually simulated (larger fleets are sampled, with the scaling reported)")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS); never affects results")
	tel := fs.Bool("telemetry", true, "attach the fleet control tower (per-account CloudWatch rollups, shard counters, phase timers)")
	topN := fs.Int("top", 5, "accounts listed in the control tower's most-expensive table")
	watch := fs.Bool("watch", false, "print live shard/account progress to stderr while the fleet drains")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile (with shard/phase pprof labels) to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	cfg := fleet.Config{
		Accounts:     *accounts,
		MaxSimulated: *maxSim,
		Seed:         *seed,
		Span:         *span,
		Workers:      *workers,
	}
	var tower *telemetry.Tower
	if *tel {
		// Interactive runs get real host-clock phase timings; simulated
		// and test runs never inject one, so their timers read zero and
		// replay identity is untouched.
		metrics.SetHostClock(func() int64 { return time.Now().UnixNano() })
		tower = telemetry.NewTower(telemetry.Options{TopN: *topN})
		cfg.Tower = tower
	}

	stopWatch := func() {}
	if *watch && tower != nil {
		done := make(chan struct{})
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			tick := time.NewTicker(200 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					p := tower.Progress()
					fmt.Fprintf(os.Stderr, "\rfleet: %d/%d accounts, %d/%d shards, %d requests, %d cold",
						p.AccountsDone, p.AccountsTotal, p.ShardsDone, p.ShardsTotal, p.Requests, p.ColdStarts)
				}
			}
		}()
		stopWatch = func() {
			close(done)
			<-finished
			fmt.Fprintln(os.Stderr)
		}
	}

	rep, err := experiments.RunFleet(cfg)
	stopWatch()
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	if tower != nil {
		fmt.Print(tower.RenderDashboard())
		fmt.Fprint(os.Stderr, tower.RenderHostPhases())
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}
