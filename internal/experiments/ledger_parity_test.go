package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The ledger-parity goldens pin the exact cost and latency output of the
// headline experiments. They were generated before the request-plane
// refactor and must stay bit-identical across any change that claims to
// be behavior-preserving: a one-nanodollar shift in a meter ledger or a
// one-nanosecond shift in a sampled latency stream shows up as a diff.
//
// Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestLedgerParity -update-ledger-goldens
var updateLedgerGoldens = flag.Bool("update-ledger-goldens", false,
	"rewrite the ledger-parity golden files from current output")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateLedgerGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-ledger-goldens to create): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("output differs from golden %s\n--- golden\n%s\n--- got\n%s", path, firstDiff(string(want), got), got)
	}
}

// firstDiff points at the first line that differs, so a parity break
// reads as "this line moved" rather than a wall of text.
func firstDiff(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("line count differs: want %d, got %d", len(w), len(g))
}

func TestLedgerParityTable1(t *testing.T) {
	tbl, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ledger_table1.golden", tbl.Render())
}

func TestLedgerParityTable2(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(RenderTable2(RunTable2()))
	sb.WriteString("\n")
	sb.WriteString(RenderFullAccounting(RunTable2FullAccounting()))
	checkGolden(t, "ledger_table2.golden", sb.String())
}

func TestLedgerParityTable3(t *testing.T) {
	tbl, _, err := RunTable3(Table3Config{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(tbl.Render())
	// The rendered table rounds to milliseconds; the raw fingerprint
	// pins every sampled duration and nanodollar amount exactly.
	fmt.Fprintf(&sb, "raw: billed=%dns run=%dns e2e=%dns p95run=%dns p99e2e=%dns alloc=%dMB peak=%dMB cost100k=%dnd samples=%d cold=%d\n",
		int64(tbl.MedBilled), int64(tbl.MedRun), int64(tbl.MedE2E),
		int64(tbl.P95Run), int64(tbl.P99E2E),
		tbl.AllocatedMB, tbl.PeakMemoryMB, int64(tbl.CostPer100K),
		tbl.Samples, tbl.ColdStarts)
	checkGolden(t, "ledger_table3.golden", sb.String())
}

// TestLedgerParityTable3Evidence pins the reconciled evidence block:
// every source's reading of the default run and each store's bill.
func TestLedgerParityTable3Evidence(t *testing.T) {
	_, ev, err := RunTable3(Table3Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ledger_table3_evidence.golden", ev.Render())
}
