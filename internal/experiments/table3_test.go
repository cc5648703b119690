package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cloudsim/logs"
	"repro/internal/core"
	"repro/internal/pricing"
)

// table3With runs the default Table 3 prototype on a cloud built with
// opts, failing the test if the run (or its reconciliation) fails.
func table3With(t *testing.T, opts core.CloudOptions) *Table3 {
	t.Helper()
	_, tbl, _, err := runTable3(Table3Config{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// The parity proof for the metrics store: installing the metrics
// interceptor must not move a single duration or nanodollar in the
// Table 3 run.
func TestObservabilityPreservesLedger(t *testing.T) {
	on := table3With(t, core.CloudOptions{})
	off := table3With(t, core.CloudOptions{DisableObservability: true})
	if *on != *off {
		t.Errorf("observability changed the measured run:\n  on:  %+v\n  off: %+v", on, off)
	}
}

// The parity proof for the log plane: installing the log interceptor
// and service sinks must not move a single duration or nanodollar in
// the Table 3 run.
func TestLogsPreserveLedger(t *testing.T) {
	on := table3With(t, core.CloudOptions{})
	off := table3With(t, core.CloudOptions{DisableLogging: true})
	if *on != *off {
		t.Errorf("logging changed the measured run:\n  on:  %+v\n  off: %+v", on, off)
	}
}

// TestTracePreservesLedger is the storage-parity gate: a run with the
// X-Ray-sim store on must be bit-identical to the same run with it
// off. The trace store is read-only over the economy — it never meters
// its own inventory and its spans only describe what happened — so
// flipping it may not move a latency sample or a nanodollar. The fleet
// side of the same contract is TestLedgerParityFleetTraced.
func TestTracePreservesLedger(t *testing.T) {
	render := func(tbl *Table3) string {
		var sb strings.Builder
		sb.WriteString(tbl.Render())
		sb.WriteString(tbl.MedBilled.String())
		sb.WriteString(tbl.MedRun.String())
		sb.WriteString(tbl.MedE2E.String())
		sb.WriteString(tbl.P95Run.String())
		sb.WriteString(tbl.P99E2E.String())
		sb.WriteString(tbl.CostPer100K.String())
		return sb.String()
	}
	on := table3With(t, core.CloudOptions{})
	off := table3With(t, core.CloudOptions{DisableTracing: true})
	if got, want := render(off), render(on); got != want {
		t.Errorf("tracing off diverges from tracing on:\n%s", firstDiff(want, got))
	}
	// Both match the pinned golden (the same file TestLedgerParityTable3
	// checks), so "on == off" cannot drift away from the seed together.
	checkGoldenPrefix(t, "ledger_table3.golden", off.Render())
}

// checkGoldenPrefix asserts got is a prefix of the named golden —
// used when a test re-derives the rendered table but not the trailing
// raw-fingerprint line another test pins.
func checkGoldenPrefix(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("missing golden %s: %v", name, err)
	}
	if !strings.HasPrefix(string(want), got) {
		t.Errorf("output is not a prefix of golden %s\n%s", name, firstDiff(string(want), got))
	}
}

// TestLogStreamsDeterministic emits the full event dump of a seeded
// run as t.Log lines; scripts/check.sh runs it twice and diffs the
// output, proving two identically-seeded runs produce byte-identical
// log streams.
func TestLogStreamsDeterministic(t *testing.T) {
	cloud, _, _, err := runTable3(Table3Config{Sends: 25}, core.CloudOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lines := dumpLogs(cloud.Logs)
	if len(lines) == 0 {
		t.Fatal("empty log dump")
	}
	reports := 0
	for _, line := range lines {
		t.Logf("logline: %s", line)
		if strings.Contains(line, " REPORT RequestId: ") &&
			strings.Contains(line, "\tBilled Duration: ") &&
			strings.Contains(line, "\tMemory Size: 448 MB\t") {
			reports++
		}
	}
	// Two session initiations plus one REPORT line per send, each in
	// the real Lambda shape the evidence query parses.
	if reports != 27 {
		t.Errorf("well-formed REPORT lines = %d, want 27", reports)
	}
}

// dumpLogs renders every stored event as one line, groups in name
// order and each group's events in the store's merged order: the
// artifact scripts/check.sh diffs across two identically-seeded runs.
func dumpLogs(s *logs.Service) []string {
	var out []string
	for _, g := range s.Inventory() {
		for _, e := range s.Tail(g.Name, 0) {
			out = append(out, fmt.Sprintf("%s %s seq=%06d t=%d %s",
				e.Group, e.Stream, e.Seq, e.Time.UnixNano(), e.Message))
		}
	}
	return out
}

// TestTable3EvidenceDeterministic replays a seeded run and requires a
// byte-identical evidence render — the single-account form of the
// replay contract check.sh enforces on the fleet dashboard.
func TestTable3EvidenceDeterministic(t *testing.T) {
	run := func() string {
		_, ev, err := RunTable3(Table3Config{Sends: 40, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return ev.Render()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("replay diverged:\n%s", firstDiff(a, b))
	}
}

// table3Readings is the default run's evidence, as RunTable3 reads it.
func table3Readings() []reading {
	stats := reading{source: "stats"}
	stats.q[qBilled] = exact(200)
	stats.q[qRun] = exact(133.53664)
	stats.q[qPeak] = exact(51.012041091918945)
	stats.q[qCold] = exact(0)
	stats.q[qInvocations] = exact(200)

	m := stats
	m.source = "metrics"
	m.q[qCost] = exact(2_091_070)

	l := reading{source: "logs"}
	l.q[qBilled] = exact(200)
	l.q[qRun] = rounded(133.54, 0.01)
	l.q[qPeak] = truncated(51, 1)
	l.q[qCold] = exact(0)
	l.q[qInvocations] = exact(200)

	tr := reading{source: "traces"}
	tr.q[qBilled] = exact(200)
	tr.q[qRun] = truncated(133, 1)
	tr.q[qCold] = exact(0)
	tr.q[qInvocations] = exact(200)
	tr.q[qCost] = exact(2_091_070)
	return []reading{stats, m, l, tr}
}

// TestReconcile proves the reconciliation fails when exactly one
// source is off by one unit of its quantity, and passes on exact and
// within-precision agreement.
func TestReconcile(t *testing.T) {
	for _, tc := range []struct {
		name   string
		source int // index into table3Readings
		q      quantity
		est    estimate
		want   []string // fragments of the error; nil means agreement
	}{
		{name: "within precision", source: 2, q: qRun, est: rounded(133.54, 0.01)},
		{name: "exact", source: 2, q: qRun, est: exact(133.53664)},
		{name: "trace run truncated", source: 3, q: qRun, est: truncated(133, 1)},
		{name: "billed off 1 ms", source: 3, q: qBilled, est: exact(201),
			want: []string{"billed p50 (ms)", "traces reports 201", "stats reports 200"}},
		{name: "REPORT run off 0.01 ms", source: 2, q: qRun, est: rounded(133.55, 0.01),
			want: []string{"run p50 (ms)", "logs reports 133.55", "stats reports 133.53664"}},
		{name: "trace run off 1 ms", source: 3, q: qRun, est: truncated(132, 1),
			want: []string{"run p50 (ms)", "traces reports 132", "metrics reports 133.53664"}},
		{name: "peak off 1 MB", source: 2, q: qPeak, est: truncated(52, 1),
			want: []string{"peak memory (MB)", "logs reports 52", "stats reports 51.012041"}},
		{name: "one extra cold start", source: 1, q: qCold, est: exact(1),
			want: []string{"cold starts", "metrics reports 1", "stats reports 0"}},
		{name: "one missing invocation", source: 2, q: qInvocations, est: exact(199),
			want: []string{"invocations", "logs reports 199", "traces reports 200"}},
		{name: "cost off 1 nd", source: 3, q: qCost, est: exact(2_091_071),
			want: []string{"send-path cost (nd)", "metrics reports 2091070", "traces reports 2091071"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := table3Readings()
			rs[tc.source].q[tc.q] = tc.est
			err := reconcile(rs)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("agreeing sources rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("disagreement not caught")
			}
			for _, frag := range tc.want {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("error lacks %q: %v", frag, err)
				}
			}
		})
	}
}

func TestMeterAgrees(t *testing.T) {
	u := func(k pricing.Kind, q float64) pricing.Usage {
		return pricing.Usage{Kind: k, Quantity: q, Resource: "proto-chat", App: "proto"}
	}
	before := []pricing.Usage{u(pricing.LambdaRequests, 3), u(pricing.LambdaGBSeconds, 0.3)}
	after := []pricing.Usage{u(pricing.LambdaRequests, 4), u(pricing.LambdaGBSeconds, 0.3875), u(pricing.KMSRequests, 1)}
	traced := []pricing.Usage{u(pricing.LambdaRequests, 1), u(pricing.LambdaGBSeconds, 0.0875), u(pricing.KMSRequests, 1)}
	if err := meterAgrees(traced, before, after); err != nil {
		t.Fatalf("matching ledgers rejected: %v", err)
	}
	off := append([]pricing.Usage(nil), traced...)
	off[1].Quantity *= 1 + 1e-6
	if err := meterAgrees(off, before, after); err == nil || !strings.Contains(err.Error(), "meter grew") {
		t.Errorf("quantity off by 1e-6 not caught: %v", err)
	}
	if err := meterAgrees(traced[:2], before, after); err == nil || !strings.Contains(err.Error(), "trace records nothing") {
		t.Errorf("untraced usage not caught: %v", err)
	}
}
