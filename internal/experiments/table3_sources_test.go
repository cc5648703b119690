package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/chat"
	"repro/internal/core"
)

// sourceReading returns the named source's reading of the send window.
func sourceReading(t *testing.T, ev *Table3Evidence, source string) reading {
	t.Helper()
	for _, r := range ev.readings {
		if r.source == source {
			return r
		}
	}
	t.Fatalf("evidence has no %s reading", source)
	return reading{}
}

// goldenColumn reads one source's column of rendered cells out of
// ledger_table3_evidence.golden, indexed by quantity.
func goldenColumn(t *testing.T, source string) [numQuantities]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "ledger_table3_evidence.golden"))
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	lines := strings.Split(string(raw), "\n")
	if len(lines) < 2+int(numQuantities) {
		t.Fatalf("golden too short: %d lines", len(lines))
	}
	col := -1
	for i, h := range strings.Fields(lines[1])[1:] {
		if h == strings.ToUpper(source) {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("golden has no %s column: %q", source, lines[1])
	}
	var cells [numQuantities]string
	for q := range numQuantities {
		line := lines[2+int(q)]
		if name := strings.TrimSpace(line[:22]); name != quantityNames[q] {
			t.Fatalf("golden row %d is %q, want %q", q, name, quantityNames[q])
		}
		cells[q] = strings.Fields(line[22:])[col]
	}
	return cells
}

// checkSourceIsolated runs Table 3 with only one telemetry store on and
// requires that store's reading and bill to match the all-stores-on
// golden: a store's evidence may not depend on which other stores
// record the same run.
func checkSourceIsolated(t *testing.T, opts core.CloudOptions, source, store string) {
	t.Helper()
	_, _, ev, err := runTable3(Table3Config{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"stats", source} {
		r := sourceReading(t, ev, src)
		want := goldenColumn(t, src)
		for q := range numQuantities {
			got := "-"
			if r.q[q].ok {
				got = formatNum(r.q[q].v)
			}
			if got != want[q] {
				t.Errorf("%s %s = %s alone, %s in the golden", src, quantityNames[q], got, want[q])
			}
		}
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "ledger_table3_evidence.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var bill string
	for _, line := range strings.Split(ev.Render(), "\n") {
		if strings.HasPrefix(line, fmt.Sprintf("  %-8s ", store)) {
			bill = line
		}
	}
	if bill == "" {
		t.Fatalf("render has no %s bill:\n%s", store, ev.Render())
	}
	if !strings.Contains(string(golden), bill+"\n") {
		t.Errorf("%s bill alone differs from the golden: %q", store, bill)
	}
}

// TestLedgerParityMetrics3 pins the metrics store's reading and bill
// of the default run with the log and trace stores off.
func TestLedgerParityMetrics3(t *testing.T) {
	checkSourceIsolated(t, core.CloudOptions{DisableLogging: true, DisableTracing: true}, "metrics", "metrics")
}

// TestLedgerParityLogs3 pins the REPORT-line reading and the logs bill
// of the default run with the metrics interceptor and trace store off.
func TestLedgerParityLogs3(t *testing.T) {
	checkSourceIsolated(t, core.CloudOptions{DisableObservability: true, DisableTracing: true}, "logs", "logs")
}

// TestLedgerParityXRay3 pins the stored-trace reading and the x-ray
// bill of the default run with the metrics interceptor and log store
// off.
func TestLedgerParityXRay3(t *testing.T) {
	checkSourceIsolated(t, core.CloudOptions{DisableObservability: true, DisableLogging: true}, "traces", "x-ray")
}

// checkMatchesTable3 compares one evidence source directly with the
// Table 3 the client measured — not with the stats reading the
// reconciliation uses — on the numbers the paper prints.
func checkMatchesTable3(t *testing.T, tbl *Table3, r reading) {
	t.Helper()
	if got, want := r.q[qBilled].v, millis(tbl.MedBilled); got != want {
		t.Errorf("%s billed p50 = %v ms, Table 3 = %v ms", r.source, got, want)
	}
	if got := r.q[qBilled].v; got != 200 {
		t.Errorf("%s billed p50 = %v ms, want the paper's 200ms", r.source, got)
	}
	if got := r.q[qRun].v; got < 120 || got > 150 {
		t.Errorf("%s run p50 = %v ms, want the paper's ≈134ms band", r.source, got)
	}
	if got, want := int64(r.q[qPeak].v), tbl.PeakMemoryMB; got != want {
		t.Errorf("%s peak = %d MB, Table 3 = %d MB", r.source, got, want)
	}
	if got, want := int(r.q[qCold].v), tbl.ColdStarts; got != want {
		t.Errorf("%s cold starts = %d, Table 3 = %d", r.source, got, want)
	}
	if got, want := int(r.q[qInvocations].v), tbl.Samples; got != want {
		t.Errorf("%s invocations in window = %d, want one per send (%d)", r.source, got, want)
	}
}

// Table 3 reconstructed purely from the auto-published series must
// equal the one measured from InvocationStats.
func TestMetrics3MatchesTable3(t *testing.T) {
	_, tbl, ev, err := runTable3(Table3Config{}, core.CloudOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := sourceReading(t, ev, "metrics")
	checkMatchesTable3(t, tbl, m)
	if !m.q[qCost].ok || m.q[qCost].v <= 0 {
		t.Errorf("metrics send-path cost = %+v, want a positive reading", m.q[qCost])
	}
	if !strings.Contains(ev.Render(), "  metrics  ") {
		t.Error("render has no metrics bill")
	}
}

// Table 3 reconstructed purely from Lambda REPORT log lines must equal
// the one measured from InvocationStats.
func TestLogs3MatchesTable3(t *testing.T) {
	cloud, tbl, ev, err := runTable3(Table3Config{}, core.CloudOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesTable3(t, tbl, sourceReading(t, ev, "logs"))
	if cloud.Logs.IngestedBytes() <= 0 {
		t.Error("log plane ingested nothing")
	}
	if len(cloud.Logs.Groups()) == 0 {
		t.Error("no log groups after the run")
	}
}

// The stored traces must agree with the metrics series: both observe
// the same invocations, one through segment annotations, the other
// through published samples.
func TestTrace3AgreesWithMetrics(t *testing.T) {
	_, _, ev, err := runTable3(Table3Config{Sends: 60}, core.CloudOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, m := sourceReading(t, ev, "traces"), sourceReading(t, ev, "metrics")
	if tr.q[qBilled].v != m.q[qBilled].v {
		t.Errorf("billed p50 disagree: traces %v, metrics %v", tr.q[qBilled].v, m.q[qBilled].v)
	}
	// Run-time annotations are whole milliseconds; the metric keeps
	// sub-millisecond precision, so truncate before comparing.
	if want := math.Floor(m.q[qRun].v); tr.q[qRun].v != want {
		t.Errorf("run p50 disagree: traces %v, metrics %v (truncated %v)", tr.q[qRun].v, m.q[qRun].v, want)
	}
	if tr.q[qBilled].v != 200 {
		t.Errorf("billed p50 = %v ms, want 200ms", tr.q[qBilled].v)
	}
	if r := tr.q[qRun].v; r < 120 || r > 150 {
		t.Errorf("run p50 = %v ms, want ≈134ms", r)
	}
	if tr.q[qCost].v <= 0 || tr.q[qCost].v != m.q[qCost].v {
		t.Errorf("send-path cost: traces %v nd, metrics %v nd", tr.q[qCost].v, m.q[qCost].v)
	}
	if tr.q[qInvocations].v != 60 || m.q[qInvocations].v != 60 {
		t.Errorf("invocations: traces %v, metrics %v, want 60", tr.q[qInvocations].v, m.q[qInvocations].v)
	}
}

// The stored traces the evidence reads must be faithful to the live
// span trees SendTraced returned: same segments, same Lambda
// annotations, same cost, send for send.
func TestXRay3MatchesTrace3(t *testing.T) {
	cloud, err := core.NewCloud(core.CloudOptions{Name: "table3"})
	if err != nil {
		t.Fatal(err)
	}
	d, err := chat.Install(cloud, "proto", chat.App{Members: []string{"alice", "bob"}, MemoryMB: 448})
	if err != nil {
		t.Fatal(err)
	}
	alice := chat.NewClient(d, "alice", "laptop")
	if _, err := alice.Session(); err != nil {
		t.Fatal(err)
	}
	cloud.Clock.Advance(table3Gap)
	from := cloud.Clock.Now()
	const sends = 60
	var liveRun, storedRun []float64
	for i := 0; i < sends; i++ {
		cloud.Clock.Advance(table3Gap)
		live, _, err := alice.SendTraced(fmt.Sprintf("message %d", i))
		if err != nil {
			t.Fatal(err)
		}
		views := cloud.Tracer.Window(from, time.Time{})
		if len(views) != i+1 {
			t.Fatalf("send %d: store holds %d traces in the window, want %d", i, len(views), i+1)
		}
		stored := views[i]
		if got, want := len(stored.Segments()), len(live.Spans()); got != want {
			t.Errorf("send %d: %d stored segments, %d live spans", i, got, want)
		}
		if got, want := stored.Cost(cloud.Book), live.Cost(cloud.Book); got != want {
			t.Errorf("send %d: stored cost %v, live cost %v", i, got, want)
		}
		lsp := live.Find("lambda", d.FnName)
		seg, ok := stored.Find("lambda", d.FnName)
		if lsp == nil || !ok {
			t.Fatalf("send %d: lambda span live=%v stored=%v", i, lsp != nil, ok)
		}
		for _, key := range []string{"billed_ms", "run_ms", "cold_start"} {
			lv, lok := lsp.Annotation(key)
			sv, sok := seg.Annotation(key)
			if lv != sv || lok != sok {
				t.Errorf("send %d %s: stored %q, live %q", i, key, sv, lv)
			}
		}
		lr, err := annotatedMs(seg, "run_ms")
		if err != nil {
			t.Fatal(err)
		}
		v, _ := lsp.Annotation("run_ms")
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("send %d: live run_ms %q: %v", i, v, err)
		}
		liveRun = append(liveRun, ms)
		storedRun = append(storedRun, lr)
	}
	if l, s := nearestRank(liveRun, 50), nearestRank(storedRun, 50); l != s {
		t.Errorf("run p50: stored %v ms, live %v ms", s, l)
	}
}
