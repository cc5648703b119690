package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// HotPath guards the telemetry publish paths' per-call cost: the
// benchmark budget (BENCH_cloudsim.json) only holds if publication
// stays on the interned fast path. These seams are rooted:
//
//   - In internal/cloudsim scopes, the body of any PlaneInterceptor —
//     and every same-package function it can reach — runs per
//     published call.
//
//   - The telemetry write paths outside the interceptors (writePaths):
//     in internal/cloudsim/trace, the store's publish path — Decide,
//     New, the span writes (StartChild, Annotate, AddUsage) into the
//     trace's slab, and Finish (finishing the root span folds the
//     trace into the store's columns) — runs per request; in
//     internal/cloudsim/lambda, writeLogLines, and in
//     internal/cloudsim/logs, AppendLambdaLines, run per invocation:
//     the platform's START/END/REPORT lines; in internal/cloudsim/logs,
//     AppendKMSAudit runs per KMS call: the kms/audit event; in
//     internal/cloudsim/plane, Do and DoHandler run per service call on
//     every flow, traced or not. Every same-package function they can
//     reach is on the path too. Reads (Query, ServiceMap, rendering)
//     are off-path and may format.
//
//   - In internal/fleet scopes, the control tower's Observe* hooks —
//     and every same-package function they can reach — run per
//     completed account (with its whole CloudWatch series reduction)
//     or per drained shard, inside the worker goroutines the fleet
//     benchmark times.
//
// None may format strings with fmt.Sprint* or allocate a map
// composite literal per call. Names and handles are interned once at
// construction or first sight; `make(map...)` for those interning
// tables is fine, it is the per-call formatting and literal maps that
// regress the hot path.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "PlaneInterceptor bodies, the request plane's per-call path, the trace, lambda-log and KMS-audit write paths, fleet-telemetry Observe hooks, and their same-package callees must not call fmt.Sprint* or build map literals; intern names and handles instead",
	Run:  runHotPath,
}

// writePaths are the per-event write entry points outside the plane
// interceptors, by package scope. hotpath roots them all; the substrate
// adds those that write telemetry stores to the concurrency seams
// shardsafe guards (Facts.ReachWritePath). The request plane's call
// path is hot but not such a seam: it writes the calling flow's own
// cursor, context and Request.
var writePaths = []struct {
	dir     string   // module-relative package directory
	seam    string   // how a finding names the seam
	roots   []string // entry points, by function or method name
	perFlow bool     // writes only flow-private state; not a shardsafe seam
}{
	{"internal/cloudsim/trace", "the trace-store publish path", []string{"Record", "Decide", "New", "StartChild", "Annotate", "AddUsage", "Finish"}, false},
	{"internal/cloudsim/lambda", "the lambda platform's per-invocation log lines", []string{"writeLogLines"}, false},
	{"internal/cloudsim/logs", "the lambda platform's per-invocation log lines", []string{"AppendLambdaLines"}, false},
	{"internal/cloudsim/logs", "the KMS audit log", []string{"AppendKMSAudit"}, false},
	{"internal/cloudsim/plane", "the request plane's per-call path", []string{"Do", "DoHandler"}, true},
}

// writePathRoot reports whether n is a write-path entry point, the
// seam it roots, and whether that path writes only flow-private state.
func writePathRoot(n *Node) (seam string, perFlow, ok bool) {
	if n.Fn == nil {
		return "", false, false
	}
	for _, w := range writePaths {
		if pathWithin(n.Pkg.Path, w.dir) && slices.Contains(w.roots, n.Fn.Name()) {
			return w.seam, w.perFlow, true
		}
	}
	return "", false, false
}

// sprintFuncs are the fmt formatters that allocate a string per call.
var sprintFuncs = map[string]bool{
	"Sprintf":  true,
	"Sprint":   true,
	"Sprintln": true,
}

func runHotPath(p *Pass) {
	// Each seam names itself (for the diagnostic) and its root set. A
	// node reachable from several seams reports under the first.
	type seam struct {
		name  string
		roots []*Node
	}
	var seams []seam
	add := func(name string, n *Node) {
		for i := range seams {
			if seams[i].name == name {
				seams[i].roots = append(seams[i].roots, n)
				return
			}
		}
		seams = append(seams, seam{name: name, roots: []*Node{n}})
	}
	for _, n := range p.Facts.Graph.PkgNodes(p.Pkg) {
		if n.Fn == nil {
			continue
		}
		switch {
		case pathWithin(p.Pkg.Path, "internal/cloudsim"):
			if name, _, ok := writePathRoot(n); ok {
				add(name, n)
			} else if n.Fn.Name() == "PlaneInterceptor" {
				add("PlaneInterceptor", n)
			}
		case pathWithin(p.Pkg.Path, "internal/fleet"):
			if strings.HasPrefix(n.Fn.Name(), "Observe") {
				add("a fleet-telemetry Observe hook", n)
			}
		}
	}

	// Forward reachability from each root through same-package calls:
	// anything a root can reach runs (or can run) per published call.
	// Closures are their own substrate nodes but display under the
	// declaring function's name, so a violation inside a root's closure
	// still reads "via <root>".
	reported := make(map[*Node]bool)
	for _, sm := range seams {
		hot := p.Facts.Graph.Reachable(sm.roots, SamePackage)
		for _, n := range p.Facts.Graph.PkgNodes(p.Pkg) {
			if !hot[n] || reported[n] {
				continue
			}
			reported[n] = true
			reportHot(p, n, sm.name)
		}
	}
}

// reportHot reports n's fmt.Sprint* calls and its own map composite
// literals as findings on the named seam.
func reportHot(p *Pass, n *Node, seam string) {
	for _, cs := range n.Calls {
		callee := cs.Callee
		if callee == nil || callee.Pkg() == nil {
			continue
		}
		if callee.Pkg().Path() == "fmt" && sprintFuncs[callee.Name()] {
			p.Reportf(cs.Call.Pos(),
				"fmt.%s formats a string on the telemetry hot path (reachable from %s via %s); intern names/handles at construction or append into a reused buffer instead",
				callee.Name(), seam, n.Name())
		}
	}
	// Map composite literals, in this node's own body only — nested
	// literals are separate hot nodes and report themselves.
	inspectShallow(n.Body, func(m ast.Node) {
		cl, ok := m.(*ast.CompositeLit)
		if !ok {
			return
		}
		tv, ok := p.Pkg.Info.Types[ast.Expr(cl)]
		if !ok || tv.Type == nil {
			return
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			p.Reportf(cl.Pos(),
				"map composite literal allocates on the telemetry hot path (reachable from %s via %s); intern names/handles at construction or append into a reused buffer instead",
				seam, n.Name())
		}
	})
}

// inspectShallow visits body without descending into nested function
// literals (their substrate nodes own those bodies); the literal node
// itself is still visited.
func inspectShallow(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		fn(n)
		_, isLit := n.(*ast.FuncLit)
		return !isLit
	})
}
