package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotPath guards the telemetry publish paths' per-call cost: the
// benchmark budget (BENCH_cloudsim.json) only holds if publication
// stays on the interned fast path. Three seams are rooted:
//
//   - In internal/cloudsim scopes, the body of any PlaneInterceptor —
//     and every same-package function it can reach — runs per
//     published call.
//
//   - In internal/cloudsim/trace, the store's publish path — Decide,
//     Finish (finishing the root span folds the trace into the store's
//     columns) and Record, plus every same-package function they can
//     reach — runs per request: the sampling decision and the columnar
//     fold. Reads (Query, ServiceMap, rendering) are off-path and may
//     format.
//
//   - In internal/fleet scopes, the control tower's Observe* hooks —
//     and every same-package function they can reach — run per
//     completed account (with its whole CloudWatch series reduction)
//     or per drained shard, inside the worker goroutines the fleet
//     benchmark times.
//
// Neither may format strings with fmt.Sprint* or allocate a map
// composite literal per call. Names and handles are interned once at
// construction or first sight; `make(map...)` for those interning
// tables is fine, it is the per-call formatting and literal maps that
// regress the hot path.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "PlaneInterceptor bodies, fleet-telemetry Observe hooks, and their same-package callees must not call fmt.Sprint* or build map literals; intern names and handles instead",
	Run:  runHotPath,
}

// sprintFuncs are the fmt formatters that allocate a string per call.
var sprintFuncs = map[string]bool{
	"Sprintf":  true,
	"Sprint":   true,
	"Sprintln": true,
}

func runHotPath(p *Pass) {
	// Each scope names its seam (for the diagnostic) and its root set.
	var seam string
	var isRoot func(*Node) bool
	switch {
	case pathWithin(p.Pkg.Path, "internal/cloudsim/trace"):
		// The trace seam must precede the general cloudsim one: the
		// store's publish path is rooted at its own hot entry points,
		// not at plane interceptors. Finish is the entry that folds.
		seam = "the trace-store publish path"
		isRoot = func(n *Node) bool {
			if n.Fn == nil {
				return false
			}
			switch n.Fn.Name() {
			case "Record", "Decide", "Finish":
				return true
			}
			return false
		}
	case pathWithin(p.Pkg.Path, "internal/cloudsim"):
		seam = "PlaneInterceptor"
		isRoot = func(n *Node) bool { return n.Fn != nil && n.Fn.Name() == "PlaneInterceptor" }
	case pathWithin(p.Pkg.Path, "internal/fleet"):
		seam = "a fleet-telemetry Observe hook"
		isRoot = func(n *Node) bool { return n.Fn != nil && strings.HasPrefix(n.Fn.Name(), "Observe") }
	default:
		return
	}

	var roots []*Node
	for _, n := range p.Facts.Graph.PkgNodes(p.Pkg) {
		if isRoot(n) {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return
	}

	// Forward reachability from each root through same-package calls:
	// anything a root can reach runs (or can run) per published call.
	// Closures are their own substrate nodes but display under the
	// declaring function's name, so a violation inside a root's closure
	// still reads "via <root>".
	hot := p.Facts.Graph.Reachable(roots, SamePackage)

	for _, n := range p.Facts.Graph.PkgNodes(p.Pkg) {
		if !hot[n] {
			continue
		}
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
