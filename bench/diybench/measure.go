package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time from getrusage.
// Unlike wall time it does not depend on how the fleet's shards were
// scheduled onto cores.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// from /proc/self/status, in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", f[1], err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// rtSample is a snapshot of the runtime/metrics counters the per-layer
// ledger reports as deltas. The runtime updates its CPU classes only
// at GC pauses, so their deltas are good over a pass, not a request.
type rtSample struct {
	gcCPU, totalCPU, idleCPU float64 // seconds
	gcCycles                 uint64
	allocBytes               uint64
	allocObjects             uint64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return rtSample{gcCPU: f(0), totalCPU: f(1), idleCPU: f(2), gcCycles: u(3), allocBytes: u(4), allocObjects: u(5)}
}

// stopwatch times one timed section on the host: wall, process CPU and
// heap allocation.
type stopwatch struct {
	t0 time.Time
	c0 time.Duration
	r0 rtSample
}

func startWatch() stopwatch {
	return stopwatch{r0: readRuntime(), c0: cpuTime(), t0: time.Now()}
}

// stopInto adds the section to r.
func (s stopwatch) stopInto(r *round) {
	r.wall += time.Since(s.t0)
	r.cpu += cpuTime() - s.c0
	r1 := readRuntime()
	r.allocBytes += r1.allocBytes - s.r0.allocBytes
	r.allocObjects += r1.allocObjects - s.r0.allocObjects
}

// ratio divides, reading 0 for an empty base so no metric is ever NaN.
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(num) || math.IsNaN(den) {
		return 0
	}
	return num / den
}

// percentile returns the nearest-rank p-th percentile of ds (which it
// sorts), or 0 for no samples.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := int(math.Ceil(p / 100 * float64(len(ds))))
	if rank < 1 {
		rank = 1
	}
	return ds[rank-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
