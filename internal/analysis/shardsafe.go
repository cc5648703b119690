package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ShardSafe guards the concurrency seams of the parallel fleet loop:
// code reachable from a plane interceptor (runs per published call,
// concurrently with every shard), from a telemetry write path (the
// trace span writes and fold, the lambda log lines; see writePaths),
// or from a fleet shard-worker goroutine (shards run concurrently on
// all cores) must not write a field of a value it did not create — receiver, parameter, or
// captured variable — without a guard in the enclosing method set: a
// sync.Mutex/RWMutex Lock in the body, or the repo's *Locked naming
// convention marking the caller as holding the lock. Locals declared in
// the function body are shard-private and free to mutate. Deliberate
// unguarded writes carry a justified .diylint-allow entry.
var ShardSafe = &Analyzer{
	Name: "shardsafe",
	Doc:  "code reachable from concurrency seams (plane interceptors, fleet shard workers) must guard shared field writes with a mutex or *Locked convention",
	Run:  runShardSafe,
}

func runShardSafe(p *Pass) {
	if !inSimScope(p.Pkg.Path) {
		return
	}
	for _, node := range p.Facts.Graph.PkgNodes(p.Pkg) {
		if !p.Facts.ReachSeam[node] || nodeGuarded(node) {
			continue
		}
		node := node
		inspectShallow(node.Body, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if field, base := sharedFieldWrite(p.Pkg.Info, node, lhs); field != "" {
						p.Reportf(lhs.Pos(),
							"unguarded write to %s.%s in code reachable from %s; take the struct's mutex (or mark the method *Locked with the lock held by the caller) before mutating state shared across shards",
							base, field, seamName(p.Facts, node))
					}
				}
			case *ast.IncDecStmt:
				if field, base := sharedFieldWrite(p.Pkg.Info, node, n.X); field != "" {
					p.Reportf(n.X.Pos(),
						"unguarded write to %s.%s in code reachable from %s; take the struct's mutex (or mark the method *Locked with the lock held by the caller) before mutating state shared across shards",
						base, field, seamName(p.Facts, node))
				}
			}
		})
	}
}

// nodeGuarded reports whether node's writes are considered guarded: the
// function follows the repo's *Locked naming convention (the caller
// holds the lock), or the body itself takes a sync lock.
func nodeGuarded(n *Node) bool {
	if strings.HasSuffix(n.Name(), "Locked") {
		return true
	}
	for _, cs := range n.Calls {
		c := cs.Callee
		if c == nil || c.Pkg() == nil || c.Pkg().Path() != "sync" {
			continue
		}
		if c.Name() == "Lock" || c.Name() == "RLock" {
			return true
		}
	}
	return false
}

// sharedFieldWrite reports the written field and its base variable name
// when lhs writes a field (or an element of a field) of a value the
// node did not create: the root of the selector chain is a receiver,
// parameter, or captured variable — anything declared outside the
// node's own body. Returns "", "" for locals, package variables
// (globalstate's turf), and non-field targets.
func sharedFieldWrite(info *types.Info, node *Node, lhs ast.Expr) (field, base string) {
	expr := ast.Unparen(lhs)
	// Unwind indexes/derefs to the selector that names the field.
	for {
		switch e := expr.(type) {
		case *ast.IndexExpr:
			expr = ast.Unparen(e.X)
			continue
		case *ast.StarExpr:
			expr = ast.Unparen(e.X)
			continue
		}
		break
	}
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	if v, ok := info.Selections[sel]; !ok || v.Kind() != types.FieldVal {
		return "", ""
	}
	root := rootIdent(sel.X)
	if root == nil {
		return "", ""
	}
	v, ok := info.Uses[root].(*types.Var)
	if !ok {
		return "", ""
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return "", "" // package-level: globalstate reports it
	}
	// Declared inside this node's own body → shard-private local.
	if node.Body != nil && v.Pos() >= node.Body.Pos() && v.Pos() <= node.Body.End() {
		return "", ""
	}
	return sel.Sel.Name, root.Name
}

// rootIdent returns the identifier at the base of a selector/index/
// deref chain, or nil (e.g. when the base is a call result, which is a
// fresh value).
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.Ident:
			return e
		default:
			return nil
		}
	}
}

// seamName names the seam a node is reachable from, for the finding
// message.
func seamName(f *Facts, n *Node) string {
	if f.ReachInterceptor[n] {
		return "a plane interceptor (runs per published call)"
	}
	if f.ReachWritePath[n] {
		return "the telemetry write path (runs per traced span or logged invocation)"
	}
	return "a fleet shard worker (shards run concurrently on all cores)"
}
