// Command diybench is the repository's benchmark: four host-time
// workloads over the fleet engine and the single-operator cloud, each
// checked against pinned output digests, plus a traced run that splits
// a request's host cost by layer.
//
// Run it through bench/run.sh from the repository root, which builds
// it with every toolchain cache inside the checkout:
//
//	sh bench/run.sh                              # every workload, one child process each
//	sh bench/run.sh -workload fleet_churn -seed 2
//	sh bench/run.sh -workload operator_day -trace 1
//
// A single-workload run prints each metric as "name value unit" and
// then, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics. It exits non-zero when an output is
// wrong.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"
)

// setupReps is how many times a run builds its inputs and warms up;
// setup_s is the median.
const setupReps = 3

// runSeconds is the default timed-phase budget. BENCHMARK.json's
// command is run with --seconds set to its run_seconds, which must
// equal this (TestBenchmarkFileMatchesMetrics checks it), so a run
// without the flag measures the same phase.
const runSeconds = 15

// digestsJSON pins every chunk's output digest for seeds 1 and 2:
// workload → seed → digest per chunk. Regenerate with -pin.
//
//go:embed digests.json
var digestsJSON []byte

func main() {
	if child, err := kernelChild(); child {
		if err != nil {
			fatalf("kernel: %v", err)
		}
		return
	}
	name := flag.String("workload", "", "run one workload; empty runs every workload, each in its own child process")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", runSeconds, "timed-phase budget: whole passes over the inputs run until the next would overrun it, and at least one does")
	trace := flag.Int("trace", 0, "1 runs one untraced and one profiled pass and prints the per-layer metrics instead")
	pin := flag.Bool("pin", false, "print every chunk digest for seeds 1 and 2 in digests.json form, then exit")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *trace == 1 {
		// Finer allocation sampling for the per-layer allocation ledger.
		runtime.MemProfileRate = 64 << 10
	}

	switch {
	case *pin:
		if err := printPins(); err != nil {
			fatalf("%v", err)
		}
	case *name == "":
		os.Exit(runChildren(*seed, *seconds, *trace))
	default:
		def, ok := findWorkload(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		pins, err := loadPins()
		if err != nil {
			fatalf("%v", err)
		}
		rep, err := runWorkload(def, *seed, time.Duration(*seconds)*time.Second, *trace == 1, size{}, pins[def.name][strconv.FormatInt(*seed, 10)])
		if err != nil {
			fatalf("%s: %v", def.name, err)
		}
		if err := rep.print(); err != nil {
			fatalf("%v", err)
		}
		if !rep.correct {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "diybench: "+format+"\n", args...)
	os.Exit(2)
}

// runChildren runs every workload in its own process, so heap and GC
// state are per workload, and returns the exit code.
func runChildren(seed int64, seconds, trace int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "diybench: %v\n", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "diybench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func loadPins() (map[string]map[string][]string, error) {
	var pins map[string]map[string][]string
	if err := json.Unmarshal(digestsJSON, &pins); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return pins, nil
}

// printPins serves one pass of every workload at seeds 1 and 2 and
// prints the digests.
func printPins() error {
	pins := make(map[string]map[string][]string)
	for _, w := range workloads {
		pins[w.name] = make(map[string][]string)
		for _, seed := range []int64{1, 2} {
			rn, err := w.prepare(seed, size{})
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			var ds []string
			rounds, err := runPass(rn, false, nil, 0)
			if err != nil {
				return err
			}
			for _, r := range rounds {
				if r.err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, r.err)
				}
				ds = append(ds, r.digest)
			}
			pins[w.name][strconv.FormatInt(seed, 10)] = ds
		}
	}
	out, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runPass serves every chunk once. With a calibrator it takes about
// timings kernel timings, spread over the marks before the first chunk
// and after each one, outside the timed sections.
func runPass(rn runner, traced bool, cal *calibrator, timings int) ([]round, error) {
	out := make([]round, 0, rn.chunks())
	perMark := (timings + rn.chunks()) / (rn.chunks() + 1)
	mark := func() error {
		var err error
		if cal != nil {
			untimed(func() { err = cal.mark(perMark) })
		}
		return err
	}
	if err := mark(); err != nil {
		return nil, err
	}
	for c := 0; c < rn.chunks(); c++ {
		out = append(out, rn.run(c, traced))
		if err := mark(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// report is one workload run's outcome.
type report struct {
	metrics           []metric
	notes             []metric // printed only: unscaled values, sample counts
	digests           []string // per chunk
	digestState       string
	attempted, failed int
	correct           bool
}

// warmSeed seeds the warm-up's inputs, the same for every run so that
// set-up time does not depend on the workload seed.
const warmSeed = 1

// runWorkload sets up, warms up, and runs the timed phase (or, traced,
// the untraced and profiled passes), then checks every chunk's output.
// pinned holds the seed's pinned digests, if any.
func runWorkload(def workloadDef, seed int64, budget time.Duration, traced bool, sz size, pinned []string) (rep *report, err error) {
	procs := runtime.GOMAXPROCS(0)
	if def.serial {
		procs = 1
	}
	cal, err := startCalibrator(procs)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := cal.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	timings := timingsPerPhase
	if sz.timings > 0 {
		timings = sz.timings
	}
	setupMark := (timings + setupReps) / (setupReps + 1)

	var rn runner
	var setups []float64
	if err := cal.mark(setupMark); err != nil {
		return nil, err
	}
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		r, err := def.prepare(seed, sz)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		w, err := def.prepare(warmSeed, sz)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if err := w.warm(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := cal.mark(setupMark); err != nil {
			return nil, err
		}
		rn = r
	}
	setupScale := cal.scale()
	if sz.div > 1 {
		pinned = nil // pins are for full-size inputs
	}

	rep = &report{}
	var rounds []round
	if !traced {
		var heap heapWatch
		heap.start()
		start := time.Now()
		for {
			ps := time.Now()
			pass, err := runPass(rn, false, cal, timings)
			if err != nil {
				return nil, err
			}
			rounds = append(rounds, pass...)
			if time.Since(start)+time.Since(ps) > budget {
				break
			}
		}
		liveMB, cycles := heap.stop()
		t, s := sum(rounds), cal.scale()
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.metrics = []metric{
			{"requests_per_s", ratio(float64(t.requests), t.wall.Seconds()*s), "req/s"},
			{"accounts_per_s", ratio(float64(t.accounts), t.wall.Seconds()*s), "accounts/s"},
			{"cpu_us_per_req", ratio(us(t.cpu)*s, float64(t.requests)), "us"},
			{"setup_s", median(setups) * setupScale, "s"},
			{"live_heap_mb", liveMB, "MB"},
		}
		rep.notes = []metric{
			{"raw.requests_per_s", ratio(float64(t.requests), t.wall.Seconds()), "req/s"},
			{"raw.cpu_us_per_req", ratio(us(t.cpu), float64(t.requests)), "us"},
			{"raw.setup_s", median(setups), "s"},
			{"time_scale", s, "ratio"},
			{"peak_rss_mb", rss, "MB"},
			{"gc_cycles", float64(cycles), "count"},
			{"passes", float64(len(rounds) / rn.chunks()), "count"},
			{"timed_s", t.wall.Seconds(), "s"},
			{"requests", float64(t.requests), "count"},
		}
		if reqs := t.op.allRequests(); len(reqs) > 0 {
			rep.notes = append(rep.notes,
				metric{"request_p50_us", us(percentile(reqs, 50)), "us"},
				metric{"request_p99_us", us(percentile(reqs, 99)), "us"},
				metric{"dashboard_reads", float64(len(t.op.reads)), "count"},
				metric{"dashboard_p50_ms", us(percentile(t.op.reads, 50)) / 1e3, "ms"},
				metric{"dashboard_p95_ms", us(percentile(t.op.reads, 95)) / 1e3, "ms"})
		}
	} else {
		ledger, all, err := tracedRun(rn, cal, timings)
		if err != nil {
			return nil, err
		}
		rounds = all
		for _, d := range perLayer() {
			rep.metrics = append(rep.metrics, metric{d.name, ledger[d.name], d.unit})
		}
	}

	rep.digests, rep.digestState = checkDigests(rounds, pinned)
	for _, r := range rounds {
		rep.attempted += r.attempted
		rep.failed += r.failed
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "diybench: %s: %v\n", def.name, r.err)
		}
	}
	rep.notes = append(rep.notes, metric{"failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "ratio"})
	rep.correct = rep.failed == 0 && rep.attempted > 0 && rep.digestState != "mismatch"
	return rep, nil
}

// tracedRun serves one untraced pass, for the runtime counters and the
// tracing-overhead baseline, then one pass under the CPU profiler with
// allocation-profile snapshots around it.
func tracedRun(rn runner, cal *calibrator, timings int) (map[string]float64, []round, error) {
	base := basePass{rt0: readRuntime()}
	t0 := time.Now()
	var err error
	if base.rounds, err = runPass(rn, false, cal, timings); err != nil {
		return nil, nil, err
	}
	base.wall = time.Since(t0)
	base.rt1 = readRuntime()
	base.scale = cal.scale()

	var tr tracedPass
	if tr.alloc0, err = allocProfile(); err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	tr.rounds, err = runPass(rn, true, cal, timings)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	tr.scale = cal.scale()
	if tr.alloc1, err = allocProfile(); err != nil {
		return nil, nil, err
	}
	if tr.cpu, err = parseProfile(buf.Bytes()); err != nil {
		return nil, nil, fmt.Errorf("CPU profile: %w", err)
	}
	ledger, err := layerLedger(base, tr)
	if err != nil {
		return nil, nil, err
	}
	return ledger, append(base.rounds, tr.rounds...), nil
}

// allocProfile snapshots the cumulative allocation profile, after a GC
// so it is current.
func allocProfile() (*profile, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("allocation profile: %w", err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("allocation profile: %w", err)
	}
	return p, nil
}

// checkDigests fails every round whose chunk digest differs from the
// pinned one or from the same chunk's earlier rounds, and returns the
// per-chunk digests and "pinned", "unpinned" or "mismatch".
func checkDigests(rounds []round, pinned []string) ([]string, string) {
	state := "unpinned"
	if pinned != nil {
		state = "pinned"
	}
	var seen []string
	for i := range rounds {
		r := &rounds[i]
		if r.err != nil {
			continue
		}
		for len(seen) <= r.chunk {
			seen = append(seen, "")
		}
		want := seen[r.chunk]
		if want == "" && pinned != nil && r.chunk < len(pinned) {
			want = pinned[r.chunk]
		}
		if pinned != nil && r.chunk >= len(pinned) || want != "" && r.digest != want {
			r.err = fmt.Errorf("chunk %d: output digest %s, want %q", r.chunk, r.digest, want)
			r.failed = r.attempted
			state = "mismatch"
			continue
		}
		seen[r.chunk] = r.digest
	}
	return seen, state
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) print() error {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]jsonMetric)}
	for _, m := range append(r.metrics, r.notes...) {
		fmt.Printf("%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	fmt.Printf("digest: %s\n", r.digestState)
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = jsonMetric{v, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
