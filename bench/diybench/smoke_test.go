package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"testing"
)

// The smoke tests run every workload at 1/50 size: untimed-budget runs
// at one and two fleet workers must agree chunk for chunk, and the
// traced run must match them and emit exactly the per-layer names
// BENCHMARK.json lists.

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMain lets the test binary serve as the reference-kernel child.
func TestMain(m *testing.M) {
	if child, err := kernelChild(); child {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	b := loadBenchmark(t)
	if b.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the -seconds default is %d", b.RunSeconds, runSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workloads[%d] = %s, want %s", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer()) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the benchmark emits %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer()))
	}
	for i, d := range endToEnd {
		if e := b.EndToEnd[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, benchmark emits %+v", i, e, d)
		}
	}
	for i, d := range perLayer() {
		if e := b.PerLayer[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, benchmark emits %+v", i, e, d)
		}
	}
}

func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests []string
			for _, workers := range []int{1, 2} {
				rep, err := runWorkload(w, 1, 0, false, size{div: 50, workers: workers, timings: 4}, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkReport(t, rep, endToEnd, true)
				if digests == nil {
					digests = rep.digests
				} else if !slices.Equal(digests, rep.digests) {
					t.Errorf("workers=%d digests %v, workers=1 %v", workers, rep.digests, digests)
				}
			}
			rep, err := runWorkload(w, 1, 0, true, size{div: 50, timings: 4}, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, perLayer(), false)
			if !slices.Equal(digests, rep.digests) {
				t.Errorf("traced run digests %v, untraced %v", rep.digests, digests)
			}
		})
	}
}

// checkReport requires a correct run that emitted exactly want, in
// order; end-to-end metrics must also never read 0.
func checkReport(t *testing.T, rep *report, want []metricDef, positive bool) {
	t.Helper()
	if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
		t.Errorf("correct=%v failed=%d attempted=%d", rep.correct, rep.failed, rep.attempted)
	}
	if len(rep.metrics) != len(want) {
		t.Fatalf("emitted %d metrics, want %d", len(rep.metrics), len(want))
	}
	for i, m := range rep.metrics {
		if m.name != want[i].name || m.unit != want[i].unit || !metricName.MatchString(m.name) {
			t.Errorf("metric %d is %s (%s), want %s (%s)", i, m.name, m.unit, want[i].name, want[i].unit)
		}
		if positive && !(m.value > 0) {
			t.Errorf("%s = %v, want > 0", m.name, m.value)
		}
	}
}
