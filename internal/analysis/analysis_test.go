package analysis

import (
	"flag"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// fixtureProgram loads every fixture package once; the loader
// type-checks the standard library from source, so tests share the
// result.
var (
	fixtureOnce sync.Once
	fixtureProg *Program
	fixtureErr  error
	moduleRoot  string
)

// fixtureDirs are the fixture packages relative to testdata/src. The
// bad/good pairing per analyzer lives in goldenCases.
var fixtureDirs = []string{
	"internal/cloudsim/wallbad",
	"internal/cloudsim/wallgood",
	"internal/cloudsim/randbad",
	"internal/cloudsim/randgood",
	"internal/cloudsim/spanbad",
	"internal/cloudsim/spangood",
	"internal/cloudsim/planebad",
	"internal/cloudsim/planegood",
	"internal/cloudsim/metricbad",
	"internal/cloudsim/metricgood",
	"internal/cloudsim/loggroupbad",
	"internal/cloudsim/loggroupgood",
	"internal/cloudsim/hotpathbad",
	"internal/cloudsim/hotpathgood",
	"internal/cloudsim/trace/storebad",
	"internal/cloudsim/trace/storegood",
	"internal/cloudsim/lambda/linesbad",
	"internal/cloudsim/lambda/linesgood",
	"internal/cloudsim/errbad",
	"internal/cloudsim/errgood",
	"internal/cloudsim/mapbad",
	"internal/cloudsim/mapgood",
	"internal/cloudsim/globalbad",
	"internal/cloudsim/globalgood",
	"internal/cloudsim/allowswap",
	"internal/cloudsim/shardbad",
	"internal/cloudsim/shardgood",
	"internal/cloudsim/testonlybad",
	"internal/cloudsim/testonlygood",
	"internal/fleet/shardfleetbad",
	"internal/fleet/shardfleetgood",
	"internal/fleet/towerbad",
	"internal/fleet/towergood",
	"moneybad",
	"moneygood",
	"graphfix",
}

func loadFixtures(t *testing.T) *Program {
	t.Helper()
	fixtureOnce.Do(func() {
		moduleRoot, fixtureErr = FindModuleRoot(".")
		if fixtureErr != nil {
			return
		}
		var patterns []string
		for _, d := range fixtureDirs {
			patterns = append(patterns, filepath.Join(moduleRoot, "internal/analysis/testdata/src", d))
		}
		fixtureProg, fixtureErr = Load(moduleRoot, patterns)
	})
	if fixtureErr != nil {
		t.Fatalf("loading fixtures: %v", fixtureErr)
	}
	return fixtureProg
}

// subProgram narrows prog to the packages whose paths end in one of the
// given fixture suffixes.
func subProgram(prog *Program, suffixes ...string) *Program {
	sub := &Program{Fset: prog.Fset, Root: prog.Root, Module: prog.Module}
	for _, pkg := range prog.Pkgs {
		for _, s := range suffixes {
			if strings.HasSuffix(pkg.Path, "/"+s) {
				sub.Pkgs = append(sub.Pkgs, pkg)
			}
		}
	}
	return sub
}

var goldenCases = []struct {
	analyzer *Analyzer
	bad      string // fixture with findings
	good     string // fixture that must stay silent
	golden   string // golden file basename; analyzer name if empty
}{
	{WallClock, "internal/cloudsim/wallbad", "internal/cloudsim/wallgood", ""},
	{GlobalRand, "internal/cloudsim/randbad", "internal/cloudsim/randgood", ""},
	{MoneyFloat, "moneybad", "moneygood", ""},
	{SpanHygiene, "internal/cloudsim/spanbad", "internal/cloudsim/spangood", ""},
	{PlaneRoute, "internal/cloudsim/planebad", "internal/cloudsim/planegood", ""},
	{MetricName, "internal/cloudsim/metricbad", "internal/cloudsim/metricgood", ""},
	{LogGroup, "internal/cloudsim/loggroupbad", "internal/cloudsim/loggroupgood", ""},
	{HotPath, "internal/cloudsim/hotpathbad", "internal/cloudsim/hotpathgood", ""},
	{DroppedErr, "internal/cloudsim/errbad", "internal/cloudsim/errgood", ""},
	{MapOrder, "internal/cloudsim/mapbad", "internal/cloudsim/mapgood", ""},
	{GlobalState, "internal/cloudsim/globalbad", "internal/cloudsim/globalgood", ""},
	{ShardSafe, "internal/cloudsim/shardbad", "internal/cloudsim/shardgood", ""},
	{TestOnly, "internal/cloudsim/testonlybad", "internal/cloudsim/testonlygood", ""},
	// The same analyzer again over the fleet scheduler seam: shard
	// worker goroutines as reachability roots. A distinct golden name
	// keeps it from colliding with the cloudsim shardsafe golden.
	{ShardSafe, "internal/fleet/shardfleetbad", "internal/fleet/shardfleetgood", "shardfleet"},
	// hotpath again over the fleet control tower's publish seam: the
	// telemetry Observe hooks as reachability roots.
	{HotPath, "internal/fleet/towerbad", "internal/fleet/towergood", "hotpathfleet"},
	// hotpath a third time over the trace store's publish seam:
	// Decide, Record, Finish and the span writes as reachability roots.
	{HotPath, "internal/cloudsim/trace/storebad", "internal/cloudsim/trace/storegood", "hotpathtrace"},
	// shardsafe over the same fixtures: the trace write path is a
	// concurrency seam, so the span slab's writes must be guarded.
	{ShardSafe, "internal/cloudsim/trace/storebad", "internal/cloudsim/trace/storegood", "shardtrace"},
	// hotpath over the lambda platform's per-invocation log lines:
	// writeLogLines as the reachability root.
	{HotPath, "internal/cloudsim/lambda/linesbad", "internal/cloudsim/lambda/linesgood", "hotpathlambda"},
}

// TestGolden runs each analyzer over its positive and negative fixture
// packages and compares the rendered findings against the golden file.
// The negative fixture is loaded in the same pass, so the golden file
// containing no line from it is the negative assertion.
func TestGolden(t *testing.T) {
	prog := loadFixtures(t)
	for _, tc := range goldenCases {
		golden := tc.golden
		if golden == "" {
			golden = tc.analyzer.Name
		}
		t.Run(golden, func(t *testing.T) {
			sub := subProgram(prog, tc.bad, tc.good)
			if len(sub.Pkgs) != 2 {
				t.Fatalf("want 2 fixture packages, loaded %d", len(sub.Pkgs))
			}
			findings := Run(sub, []*Analyzer{tc.analyzer})

			var badHits, goodHits int
			var sb strings.Builder
			for _, f := range findings {
				if strings.Contains(f.Pos.Filename, tc.bad) {
					badHits++
				}
				if strings.Contains(f.Pos.Filename, tc.good) {
					goodHits++
				}
				sb.WriteString(f.Rel(moduleRoot))
				sb.WriteString("\n")
			}
			if badHits == 0 {
				t.Errorf("positive fixture %s produced no %s findings", tc.bad, tc.analyzer.Name)
			}
			if goodHits != 0 {
				t.Errorf("negative fixture %s produced %d %s findings", tc.good, goodHits, tc.analyzer.Name)
			}

			goldenPath := filepath.Join(moduleRoot, "internal/analysis/testdata/golden", golden+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./internal/analysis -update`): %v", err)
			}
			if got := sb.String(); got != string(want) {
				t.Errorf("findings diverge from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}

// TestRepoIsClean is `diylint ./...` as a test: the tree itself must
// satisfy every invariant, modulo the justified entries in
// .diylint-allow, and no allowlist entry may be stale.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short mode")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(root, []string{filepath.Join(root, "...")})
	if err != nil {
		t.Fatal(err)
	}
	var entries []*AllowEntry
	if allowPath := filepath.Join(root, ".diylint-allow"); fileExists(allowPath) {
		entries, err = ParseAllowFile(allowPath)
		if err != nil {
			t.Fatal(err)
		}
	}
	findings := Run(prog, Analyzers())
	kept, stale, drifted := Filter(findings, entries, root)
	for _, f := range kept {
		t.Errorf("unallowed finding: %s", f.Rel(root))
	}
	for _, e := range stale {
		t.Errorf("stale allowlist entry: %s %s # %s", e.Analyzer, e.File, e.Justification)
	}
	for _, e := range drifted {
		t.Errorf("drifted allowlist entry: %s %s names %s, whose finding is on line %d # %s", e.Analyzer, e.Target(), e.Symbol(), e.DriftLine, e.Justification)
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestFixturesExcludedFromGoTooling is diylint's self-check: every
// fixture package must live under a testdata directory (which the go
// tool — and so `go test ./...` — never descends into), and the
// driver's own recursive pattern expansion must skip them the same
// way, so fixtures are only ever analyzed when named explicitly.
func TestFixturesExcludedFromGoTooling(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fixtureDirs {
		dir := filepath.Join(root, "internal/analysis/testdata/src", d)
		if !hasGoFiles(dir) {
			t.Errorf("fixture %s has no Go files", d)
		}
		onTestdataPath := false
		for _, seg := range strings.Split(filepath.ToSlash(dir), "/") {
			if seg == "testdata" {
				onTestdataPath = true
			}
		}
		if !onTestdataPath {
			t.Errorf("fixture %s is not under a testdata directory; go test ./... would compile it", d)
		}
	}
	dirs, err := expandPatterns(root, []string{filepath.Join(root, "...")})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if strings.Contains(filepath.ToSlash(dir), "/testdata/") || strings.HasSuffix(dir, "/testdata") {
			t.Errorf("recursive expansion leaked a testdata package: %s", dir)
		}
	}
}

// TestExpandPatternsExplicitTestdata checks the flip side of the
// exclusion: naming a fixture directory explicitly must load it.
func TestExpandPatternsExplicitTestdata(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal/analysis/testdata/src/internal/cloudsim/wallbad")
	dirs, err := expandPatterns(root, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || dirs[0] != dir {
		t.Fatalf("explicit fixture pattern expanded to %v, want [%s]", dirs, dir)
	}
}

func TestParseAllow(t *testing.T) {
	entries, err := parseAllow(`
# comment
wallclock internal/foo/bar.go # server deadlines are genuinely wall-clock
droppederr internal/foo/baz.go:42 # close on shutdown path, error is unactionable
`, "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(entries))
	}
	if entries[0].Analyzer != "wallclock" || entries[0].File != "internal/foo/bar.go" || entries[0].Line != 0 {
		t.Errorf("entry 0 parsed as %+v", entries[0])
	}
	if entries[1].Line != 42 || entries[1].Justification == "" {
		t.Errorf("entry 1 parsed as %+v", entries[1])
	}

	if _, err := parseAllow("wallclock internal/foo/bar.go\n", "test"); err == nil {
		t.Error("entry without justification must be rejected")
	}
	if _, err := parseAllow("wallclock internal/foo/bar.go #   \n", "test"); err == nil {
		t.Error("entry with blank justification must be rejected")
	}
	if _, err := parseAllow("nosuch internal/foo/bar.go # why\n", "test"); err == nil {
		t.Error("unknown analyzer must be rejected")
	}
	if _, err := parseAllow("wallclock internal/foo/bar.go:zero # why\n", "test"); err == nil {
		t.Error("bad line number must be rejected")
	}
}

func TestFilter(t *testing.T) {
	root := string(filepath.Separator) + "mod"
	mk := func(file string, line int, analyzer string) Finding {
		return Finding{
			Analyzer: analyzer,
			Pos:      token.Position{Filename: filepath.Join(root, file), Line: line},
		}
	}
	findings := []Finding{
		mk("a/a.go", 10, "wallclock"),
		mk("a/a.go", 20, "wallclock"),
		mk("b/b.go", 5, "droppederr"),
	}
	entries, err := parseAllow(`
wallclock a/a.go:10 # line-scoped
droppederr b/b.go # file-scoped
globalrand c/c.go # never matches
`, "test")
	if err != nil {
		t.Fatal(err)
	}
	kept, stale, drifted := Filter(findings, entries, root)
	if len(kept) != 1 || kept[0].Pos.Line != 20 {
		t.Errorf("kept = %v, want only the line-20 wallclock finding", kept)
	}
	if len(stale) != 1 || stale[0].Analyzer != "globalrand" {
		t.Errorf("stale = %v, want only the globalrand entry", stale)
	}
	if len(drifted) != 0 {
		t.Errorf("drifted = %v, want none: every entry matched exactly or not at all", drifted)
	}
}

// TestFilterDrift pins the line-drift handling: a line-scoped entry
// whose exact line no longer matches binds to the nearest un-suppressed
// finding of the same analyzer in the same file — and only then — and
// is reported as drifted, naming that finding's line. An entry for
// another analyzer or another file stays stale no matter how close its
// line is, and a second entry cannot ride the finding the first one
// already suppressed.
func TestFilterDrift(t *testing.T) {
	root := string(filepath.Separator) + "mod"
	mk := func(file string, line int, analyzer string) Finding {
		return Finding{
			Analyzer: analyzer,
			Pos:      token.Position{Filename: filepath.Join(root, file), Line: line},
		}
	}

	t.Run("binds to nearest same-analyzer finding", func(t *testing.T) {
		findings := []Finding{
			mk("a/a.go", 15, "globalstate"),
			mk("a/a.go", 40, "globalstate"),
		}
		entries, err := parseAllow("globalstate a/a.go:12 # drifted three lines\n", "test")
		if err != nil {
			t.Fatal(err)
		}
		kept, stale, drifted := Filter(findings, entries, root)
		if len(stale) != 0 {
			t.Errorf("stale = %v, want none: the entry should drift onto line 15", stale)
		}
		if len(kept) != 1 || kept[0].Pos.Line != 40 {
			t.Errorf("kept = %v, want only the line-40 finding (line 15 is nearest to 12)", kept)
		}
		if len(drifted) != 1 || drifted[0].DriftLine != 15 {
			t.Errorf("drifted = %v, want the entry reported as now matching line 15", drifted)
		}
	})

	t.Run("wrong analyzer or file stays stale", func(t *testing.T) {
		findings := []Finding{mk("a/a.go", 15, "globalstate")}
		entries, err := parseAllow(`
shardsafe a/a.go:15 # same line, wrong analyzer
globalstate b/b.go:15 # same analyzer, wrong file
`, "test")
		if err != nil {
			t.Fatal(err)
		}
		kept, stale, _ := Filter(findings, entries, root)
		if len(kept) != 1 {
			t.Errorf("kept = %v, want the finding kept: neither entry may bind to it", kept)
		}
		if len(stale) != 2 {
			t.Errorf("stale = %v, want both entries stale", stale)
		}
	})

	t.Run("one finding absorbs only one drifted entry", func(t *testing.T) {
		findings := []Finding{mk("a/a.go", 15, "globalstate")}
		entries, err := parseAllow(`
globalstate a/a.go:14 # binds first
globalstate a/a.go:16 # nothing left to bind to
`, "test")
		if err != nil {
			t.Fatal(err)
		}
		kept, stale, _ := Filter(findings, entries, root)
		if len(kept) != 0 {
			t.Errorf("kept = %v, want the finding suppressed by the first entry", kept)
		}
		if len(stale) != 1 || stale[0].Line != 16 {
			t.Errorf("stale = %v, want only the line-16 entry", stale)
		}
	})
}

// TestDriftedEntryFixture runs the drift report end to end: the
// globalstate analyzer over the globalbad fixture, filtered through
// testdata/drift.allow, whose middle entry names a line its finding has
// left. The drifted finding stays suppressed and nothing is stale, but
// the entry is reported with the line it now matches.
func TestDriftedEntryFixture(t *testing.T) {
	prog := loadFixtures(t)
	findings := Run(subProgram(prog, "internal/cloudsim/globalbad"), []*Analyzer{GlobalState})
	entries, err := ParseAllowFile(filepath.Join(moduleRoot, "internal/analysis/testdata/drift.allow"))
	if err != nil {
		t.Fatal(err)
	}
	kept, stale, drifted := Filter(findings, entries, moduleRoot)
	if len(kept) != 0 {
		t.Errorf("kept = %v, want every finding suppressed, the drifted one too", kept)
	}
	if len(stale) != 0 {
		t.Errorf("stale = %v, want none", stale)
	}
	if len(drifted) != 1 || drifted[0].Line != 17 || drifted[0].DriftLine != 15 {
		t.Fatalf("drifted = %v, want only the line-17 entry, now matching line 15", drifted)
	}
}

// TestSwappedEntryFixture reproduces two adjacent allowlist entries
// that traded lines, as the plane's regMu and registry entries once
// did: each entry's line holds a finding of its analyzer in its file,
// but for the other variable. Neither may be accepted there. Each binds
// by drift to the finding of the variable its justification names, and
// both are reported, so diylint fails until the lines are corrected.
func TestSwappedEntryFixture(t *testing.T) {
	prog := loadFixtures(t)
	findings := Run(subProgram(prog, "internal/cloudsim/allowswap"), []*Analyzer{GlobalState})
	if len(findings) != 2 || findings[0].Symbol != "regMu" || findings[1].Symbol != "registry" {
		t.Fatalf("findings = %v, want regMu's then registry's", findings)
	}
	entries, err := ParseAllowFile(filepath.Join(moduleRoot, "internal/analysis/testdata/swap.allow"))
	if err != nil {
		t.Fatal(err)
	}
	kept, stale, drifted := Filter(findings, entries, moduleRoot)
	if len(kept) != 0 || len(stale) != 0 {
		t.Errorf("kept = %v, stale = %v, want neither: each finding has an entry naming it", kept, stale)
	}
	if len(drifted) != 2 {
		t.Fatalf("drifted = %v, want both swapped entries reported", drifted)
	}
	for _, e := range drifted {
		want := map[string]int{"registry": 15, "regMu": 14}[e.Symbol()]
		if e.DriftLine != want {
			t.Errorf("entry %s (%s) drifted to line %d, want %d", e.Target(), e.Symbol(), e.DriftLine, want)
		}
	}
}

// TestAllowEntrySymbol pins how an entry names its declaration: the
// justification's leading token, with any receiver or package
// qualification and a trailing colon dropped.
func TestAllowEntrySymbol(t *testing.T) {
	for just, want := range map[string]string{
		"regMu guards the op registry below":      "regMu",
		"(*Client).Join: public API":              "Join",
		"Connection.Send accrues active-time":     "Send",
		"cache: drifted, moved up two lines":      "cache",
		"TraceView.CriticalPath: first caller":    "CriticalPath",
		"the finding is deliberate":               "the",
		"$ not an identifier":                     "",
		"(*T). empty after the qualification dot": "",
	} {
		if got := (&AllowEntry{Justification: just}).Symbol(); got != want {
			t.Errorf("Symbol() of %q = %q, want %q", just, got, want)
		}
	}
}

// TestAllowEntryTarget pins the rendering the stale-entry message uses.
func TestAllowEntryTarget(t *testing.T) {
	line := AllowEntry{Analyzer: "globalstate", File: "a/a.go", Line: 12}
	if got := line.Target(); got != "a/a.go:12" {
		t.Errorf("line-scoped Target() = %q, want %q", got, "a/a.go:12")
	}
	file := AllowEntry{Analyzer: "droppederr", File: "b/b.go"}
	if got := file.Target(); got != "b/b.go" {
		t.Errorf("file-scoped Target() = %q, want %q", got, "b/b.go")
	}
}
