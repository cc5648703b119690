// Command diylint runs the repo's domain-invariant static analyzers:
// virtual-time purity (wallclock), seeded randomness (globalrand),
// nanodollar money discipline (moneyfloat), trace-span coverage
// (spanhygiene), plane routing (planeroute), metric-name registry
// discipline (metricname), log-group registry discipline (loggroup),
// telemetry hot-path allocation discipline (hotpath), discarded errors
// (droppederr), map-iteration-order determinism (maporder), no mutable
// package-level state (globalstate), guarded writes across
// concurrency seams (shardsafe), and a lean exported surface with no
// test-only API (testonly). All thirteen run off one shared
// substrate pass that builds the module call graph and its
// reachability facts.
//
// Usage:
//
//	diylint [-allow file] [-format text|json|sarif] [packages...]
//
// Packages are directory patterns relative to the module root
// ("./..." by default; a trailing /... recurses, skipping testdata).
// With -format=text (the default) findings print as
// "file:line: analyzer: message"; -format=json emits a JSON array and
// -format=sarif a SARIF 2.1.0 log for CI annotation. Exit status is 0
// when clean, 1 when findings remain after the allowlist, and 2 on
// driver errors.
//
// Pre-existing findings that are deliberate carry an entry in the
// module root's .diylint-allow file:
//
//	<analyzer> <file>[:<line>] # <justification>
//
// The justification is required — an unexplained suppression is
// rejected — and entries that no longer match anything are reported as
// stale so the file cannot rot. A line-scoped entry whose exact line no
// longer matches binds to the nearest finding of the same analyzer in
// the same file, so the finding stays suppressed, but the entry is
// reported as drifted, naming the line it now matches, and the run
// fails until the entry's line is corrected.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

func main() {
	allowFlag := flag.String("allow", "", "allowlist file (default: <module root>/.diylint-allow if present)")
	formatFlag := flag.String("format", "text", "output format: text, json, or sarif")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: diylint [-allow file] [-format text|json|sarif] [packages...]\n\nAnalyzers:\n")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	os.Exit(run(*allowFlag, *formatFlag, flag.Args()))
}

func run(allowPath, format string, patterns []string) int {
	switch format {
	case "text", "json", "sarif":
	default:
		return fail(fmt.Errorf("unknown -format %q (want text, json, or sarif)", format))
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		return fail(err)
	}
	// Interpret patterns relative to the invocation directory, not the
	// module root, so `go run ./cmd/diylint ./internal/...` works from
	// subdirectories too.
	abs := make([]string, len(patterns))
	for i, p := range patterns {
		if filepath.IsAbs(p) {
			abs[i] = p
		} else {
			abs[i] = filepath.Join(wd, p)
		}
	}

	prog, err := analysis.Load(root, abs)
	if err != nil {
		return fail(err)
	}

	var entries []*analysis.AllowEntry
	if allowPath == "" {
		candidate := filepath.Join(root, ".diylint-allow")
		if _, statErr := os.Stat(candidate); statErr == nil {
			allowPath = candidate
		}
	}
	if allowPath != "" {
		entries, err = analysis.ParseAllowFile(allowPath)
		if err != nil {
			return fail(err)
		}
	}

	findings := analysis.Run(prog, analysis.Analyzers())
	kept, stale, drifted := analysis.Filter(findings, entries, root)
	for _, e := range stale {
		fmt.Fprintf(os.Stderr, "diylint: stale allowlist entry: %s %s (matches nothing; remove it)\n", e.Analyzer, e.Target())
	}
	for _, e := range drifted {
		fmt.Fprintf(os.Stderr, "diylint: drifted allowlist entry: %s %s now matches line %d; correct its line\n", e.Analyzer, e.Target(), e.DriftLine)
	}
	switch format {
	case "json":
		if err := analysis.WriteJSON(os.Stdout, kept, root); err != nil {
			return fail(err)
		}
	case "sarif":
		if err := analysis.WriteSARIF(os.Stdout, kept, root); err != nil {
			return fail(err)
		}
	default:
		for _, f := range kept {
			fmt.Println(f.Rel(root))
		}
	}
	if len(kept) > 0 {
		fmt.Fprintf(os.Stderr, "diylint: %d finding(s)\n", len(kept))
		return 1
	}
	if len(drifted) > 0 {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "diylint:", err)
	return 2
}
