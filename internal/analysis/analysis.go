// Package analysis implements diylint, the repo's domain-invariant
// static analyzer. The paper's cost tables only hold if the simulator
// is deterministic and correctly metered, so a suite of analyzers
// machine-checks the invariants every service must obey:
//
//   - wallclock: simulator, app, and workload code reads time only
//     through an injected clock.Clock, never the time package's wall
//     clock, so virtual-timeline replay stays deterministic;
//   - globalrand: randomness comes from an injected seeded *rand.Rand,
//     never the process-global math/rand source;
//   - moneyfloat: scaling and float conversion of pricing.Money happen
//     only inside internal/pricing, preserving nanodollar parity;
//   - spanhygiene: exported service methods that accept a *sim.Context
//     touch the span API, so trace coverage cannot silently regress;
//   - planeroute: exported service methods that accept a *sim.Context
//     route their calls through plane.Do, so no service can bypass the
//     unified trace/auth/latency/meter pipeline;
//   - metricname: metric series names are registry constants from
//     internal/cloudsim/metrics, lowercase dot-separated and passed by
//     constant reference, so a typo cannot silently split a series;
//   - loggroup: log group names are registry expressions from
//     internal/cloudsim/logs, lowercase slash-separated and passed by
//     constant or deriver call, so a typo cannot fork the evidence
//     trail into an unwatched group;
//   - hotpath: PlaneInterceptor bodies, the telemetry write paths (the
//     trace store's span writes and fold, the lambda platform's
//     per-invocation log lines), fleet-telemetry Observe hooks and the
//     same-package functions they reach must not fmt.Sprint* or build
//     map literals per call, so the telemetry fast path's benchmark
//     budget cannot regress;
//   - droppederr: internal/cloudsim never discards an error with `_ =`;
//   - maporder: sim code never ranges over a map where the iteration
//     order can reach observable output (ledger lines, log events,
//     metric publication, rendered text) — sort the keys first;
//   - globalstate: sim/app/workload packages declare no mutable
//     package-level state, so per-account shards cannot alias;
//   - shardsafe: functions reachable from a concurrency seam (plane
//     interceptors, the telemetry write paths, fleet shard workers)
//     only write shared fields under a mutex/atomic guard;
//   - testonly: every exported function under internal/ has a non-test
//     reference, so the shipped surface carries no test-only API.
//
// All analyzers run off a shared substrate (substrate.go): one pass
// builds the same-module call graph and the reachability/mutation facts
// (reachable-from-interceptor, reachable-from-fleet-worker,
// reachable-from-handler, emits-output, mutated-variables), and each
// analyzer consumes those facts instead of re-walking every body.
//
// The driver is stdlib-only (go/ast, go/parser, go/types): the repo is
// built offline, so there is no golang.org/x/tools dependency.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Symbol names the declaration the finding lies in: the function or
	// method, or the package-level var, const or type. Empty where no
	// declaration encloses it (an import) or the finding was built by
	// hand. A line-scoped allowlist entry binds to it (AllowEntry.Symbol).
	Symbol string
}

// String formats the finding as "file:line: analyzer: message" with the
// file path relative to root (or absolute if rel fails).
func (f Finding) String() string { return f.Rel("") }

// Rel formats the finding with its file path relative to root.
func (f Finding) Rel(root string) string {
	name := f.Pos.Filename
	if root != "" {
		if r, err := filepath.Rel(root, name); err == nil {
			name = filepath.ToSlash(r)
		}
	}
	return fmt.Sprintf("%s:%d: %s: %s", name, f.Pos.Line, f.Analyzer, f.Message)
}

// Pass is the per-package unit of work handed to each analyzer.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	// Facts is the shared substrate output — call graph, seam
	// reachability, output-emission, and variable-mutation facts —
	// computed once per Run and identical across passes.
	Facts *Facts

	findings *[]Finding
	name     string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.name,
		Message:  fmt.Sprintf(format, args...),
		Symbol:   enclosingSymbol(p.Pkg.Files, pos),
	})
}

// enclosingSymbol names the top-level declaration of files that
// contains pos: a function or method's name, or, in a var, const or
// type declaration, the name of the spec holding pos (for a spec that
// declares several names, the last one at or before pos). "" when no
// such declaration contains pos.
func enclosingSymbol(files []*ast.File, pos token.Pos) string {
	for _, f := range files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, d := range f.Decls {
			if pos < d.Pos() || pos > d.End() {
				continue
			}
			switch d := d.(type) {
			case *ast.FuncDecl:
				return d.Name.Name
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if pos < spec.Pos() || pos > spec.End() {
						continue
					}
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						return spec.Name.Name
					case *ast.ValueSpec:
						name := spec.Names[0].Name
						for _, n := range spec.Names[1:] {
							if n.Pos() <= pos {
								name = n.Name
							}
						}
						return name
					}
				}
			}
			return ""
		}
	}
	return ""
}

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers returns the full diylint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WallClock,
		GlobalRand,
		MoneyFloat,
		SpanHygiene,
		PlaneRoute,
		MetricName,
		LogGroup,
		HotPath,
		DroppedErr,
		MapOrder,
		GlobalState,
		ShardSafe,
		TestOnly,
	}
}

// AnalyzerNames reports the names of the full suite.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// Run applies the analyzers to every package of prog and returns the
// findings sorted by position. The substrate facts are computed exactly
// once, up front, and shared by every (package, analyzer) pass.
func Run(prog *Program, analyzers []*Analyzer) []Finding {
	facts := ComputeFacts(prog)
	var findings []Finding
	for _, pkg := range prog.Pkgs {
		for _, a := range analyzers {
			pass := &Pass{Fset: prog.Fset, Pkg: pkg, Facts: facts, findings: &findings, name: a.Name}
			a.Run(pass)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// pathWithin reports whether pkgPath lies inside the module-relative
// directory dir (e.g. "internal/cloudsim"). Matching is on path
// segments anywhere in the import path, so the fixture packages under
// internal/analysis/testdata/src/internal/cloudsim/... exercise the
// same scope rules as the real tree.
func pathWithin(pkgPath, dir string) bool {
	return strings.Contains("/"+pkgPath+"/", "/"+dir+"/")
}

// walkFiles applies fn to every node of every file in the pass's
// package (test files are never loaded, so they are never visited).
func walkFiles(p *Pass, fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}
