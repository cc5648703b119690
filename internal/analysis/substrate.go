package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the shared analysis substrate: one pass over a loaded
// Program that builds a same-module static call graph and computes the
// reachability facts every analyzer consumes. Before it existed each
// call-graph-shaped analyzer (spanhygiene, planeroute, hotpath) re-walked
// every function body and ran its own private fixpoint; the fleet-scale
// analyzers (maporder, globalstate, shardsafe) need module-wide facts —
// which functions can run inside a concurrency seam, which functions can
// reach observable output, which package variables are ever mutated —
// that only make sense computed once, over the whole program.
//
// The graph is deliberately static and conservative:
//
//   - Nodes are function declarations AND function literals. A literal
//     is its own node (it can be registered as a plane interceptor or a
//     service handler independent of its enclosing function) with an
//     edge from the enclosing node, since the encloser may invoke it.
//   - Direct calls resolve through go/types (Uses), giving precise
//     edges for functions and methods named at the call site.
//   - A function referenced outside call position (a method value or
//     function value passed around) gets a reference edge from the node
//     that mentions it: whoever receives the value may call it.
//   - Calls through an interface method dispatch to every module method
//     with that name whose receiver implements the interface — but only
//     for interfaces declared inside the module. Stdlib interfaces
//     (io.Writer et al.) would fan out to absurd edge sets and are
//     handled as direct sinks where an analyzer cares.
//
// Everything downstream — seam roots, reachability sets, output-sink
// facts, the mutated-variable index — derives from this one structure.

// Node is one function in the call graph: a declared function/method or
// a function literal.
type Node struct {
	// Fn is the declared function object; nil for literals.
	Fn *types.Func
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Decl is the enclosing declaration: the declaration itself for
	// declared functions, the lexically enclosing FuncDecl for literals
	// (nil for literals in package-level variable initializers).
	Decl *ast.FuncDecl
	// Pkg is the package the node's body lives in.
	Pkg *Package
	// Body is the function body (never nil; bodiless declarations get no
	// node).
	Body *ast.BlockStmt
	// Calls are the call sites lexically inside this node's own body,
	// excluding those inside nested literals (the literal node owns
	// them). Callee is nil when the call cannot be resolved statically
	// (calls through function-typed variables and parameters).
	Calls []CallSite
	// Callees are the deduplicated outgoing edges: direct calls,
	// referenced function values, nested literals, and interface
	// dispatch fallbacks, in first-mention order.
	Callees []*Node

	// referenced marks a declared function that the loaded program
	// names outside its own declaration (see Facts.Referenced).
	referenced bool
}

// CallSite is one call expression with its statically resolved callee.
type CallSite struct {
	Call *ast.CallExpr
	// Callee is the invoked function or method, nil when unresolvable.
	Callee *types.Func
}

// Name is the node's display name: the declared function's name, or the
// enclosing declaration's name for literals (matching how a reader
// locates the code, and how the pre-substrate analyzers reported
// closures).
func (n *Node) Name() string {
	if n.Fn != nil {
		return n.Fn.Name()
	}
	if n.Decl != nil {
		return n.Decl.Name.Name
	}
	return "func literal"
}

// Graph is the same-module static call graph over a Program.
type Graph struct {
	// Nodes lists every node in load order (packages in Program order,
	// files in package order, declarations in source order), which is
	// deterministic.
	Nodes []*Node
	// ByFn maps declared function objects to their nodes.
	ByFn map[*types.Func]*Node
	// ByLit maps function literals to their nodes.
	ByLit map[*ast.FuncLit]*Node
	// byPkg groups nodes by package, preserving Nodes order.
	byPkg map[*Package][]*Node
}

// PkgNodes returns the nodes whose bodies live in pkg, in source order.
func (g *Graph) PkgNodes(pkg *Package) []*Node { return g.byPkg[pkg] }

// Facts is the substrate output: the graph plus the program-wide
// reachability and mutation facts analyzers consume. Computed once per
// Run and shared by every analyzer through Pass.Facts.
type Facts struct {
	Prog  *Program
	Graph *Graph

	// ReachInterceptor marks nodes reachable (module-wide) from a
	// telemetry-interceptor seam root: a cloudsim function named
	// PlaneInterceptor or a function/literal passed to
	// (*plane.Plane).Use. Code here runs on every published call,
	// potentially concurrently with every shard.
	ReachInterceptor map[*Node]bool
	// ReachHandler marks nodes reachable from a service handler passed
	// to plane.Do: the per-call state-mutating stage.
	ReachHandler map[*Node]bool
	// ReachFleet marks nodes reachable (within the fleet scope) from a
	// goroutine body spawned inside internal/fleet: the shard workers
	// that run account simulations concurrently on every core. The
	// filter admits any edge whose target lives under internal/fleet —
	// same-package bookkeeping plus the fleet/telemetry control tower
	// the workers publish into, which is exactly the cross-worker
	// shared state the seam analyzers exist to guard. Other
	// cross-package callees (the simulator, the apps) operate on
	// shard-private per-account state by construction and stay out.
	ReachFleet map[*Node]bool
	// ReachWritePath marks nodes reachable (module-wide) from a
	// telemetry write-path entry point outside the interceptors
	// (writePaths in hotpath.go): the trace span writes and fold, and
	// the lambda platform's per-invocation log lines. Code here runs
	// per traced span or logged invocation, concurrently with every
	// other flow that writes the same account's stores.
	ReachWritePath map[*Node]bool
	// ReachSeam is the union of the concurrency seams shardsafe guards:
	// the interceptor roots, the telemetry write paths and the fleet
	// shard workers.
	ReachSeam map[*Node]bool

	// Emits marks nodes that can reach an order-observable output sink:
	// fmt printing, strings.Builder/bytes.Buffer/io writes, ledger
	// metering, log-event ingestion, metric publication, or trace
	// annotation. maporder uses it to decide whether a map iteration's
	// order can leak into output.
	Emits map[*Node]bool

	// mutated and addrTaken index package-level variables by how the
	// loaded program uses them: assigned/deleted/incremented anywhere
	// (including through an index or field), or aliased via & /
	// pointer-receiver method calls. globalstate treats a package-level
	// var with neither as an immutable table.
	mutated   map[*types.Var]token.Pos
	addrTaken map[*types.Var]token.Pos

	// ifaceUsed holds the interface methods the loaded program names,
	// whose implementations are reached by dynamic dispatch.
	ifaceUsed map[*types.Func]bool
}

// VarMutated reports whether the loaded program ever writes v (directly,
// through an index/field/deref, or via ++/--), and where it first does.
func (f *Facts) VarMutated(v *types.Var) (token.Pos, bool) {
	pos, ok := f.mutated[v]
	return pos, ok
}

// VarAddrTaken reports whether the loaded program ever aliases v — takes
// its address explicitly or implicitly via a pointer-receiver method
// call — and where it first does.
func (f *Facts) VarAddrTaken(v *types.Var) (token.Pos, bool) {
	pos, ok := f.addrTaken[v]
	return pos, ok
}

// Referenced reports whether the loaded program names fn anywhere
// outside fn's own declaration, calls an interface method that fn
// implements, or converts a value whose method fn is to an interface fn
// implements.
func (f *Facts) Referenced(fn *types.Func) bool {
	fn = fn.Origin()
	if n := f.Graph.ByFn[fn]; n != nil && n.referenced {
		return true
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if _, isPtr := recv.(*types.Pointer); !isPtr {
		recv = types.NewPointer(recv) // *T's method set includes T's
	}
	for m := range f.ifaceUsed {
		if m.Name() != fn.Name() {
			continue
		}
		if it, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface); ok && types.Implements(recv, it) {
			return true
		}
	}
	return false
}

// ComputeFacts runs the substrate pass over prog: node collection, then
// edge drawing + seam detection + mutation indexing in one walk, then
// the reachability and emission fixpoints.
func ComputeFacts(prog *Program) *Facts {
	b := &graphBuilder{
		graph: &Graph{
			ByFn:  make(map[*types.Func]*Node),
			ByLit: make(map[*ast.FuncLit]*Node),
			byPkg: make(map[*Package][]*Node),
		},
	}
	for _, pkg := range prog.Pkgs {
		b.collectNodes(pkg)
	}
	f := &Facts{
		Prog:      prog,
		Graph:     b.graph,
		mutated:   make(map[*types.Var]token.Pos),
		addrTaken: make(map[*types.Var]token.Pos),
		ifaceUsed: make(map[*types.Func]bool),
	}
	for _, pkg := range prog.Pkgs {
		b.walkBodies(pkg, f)
	}

	// Seam roots beyond explicit registrations: cloudsim functions named
	// PlaneInterceptor (the factories core wires via plane.Use — the
	// wiring passes a local variable, so the name is the reliable
	// signal).
	for _, n := range b.graph.Nodes {
		if n.Fn != nil && n.Fn.Name() == "PlaneInterceptor" && pathWithin(n.Pkg.Path, "internal/cloudsim") {
			b.interceptorRoots = append(b.interceptorRoots, n)
		}
	}

	var writeRoots []*Node
	for _, n := range b.graph.Nodes {
		if _, ok := writePathRoot(n); ok {
			writeRoots = append(writeRoots, n)
		}
	}

	anyEdge := func(*Node, *Node) bool { return true }
	f.ReachInterceptor = b.graph.Reachable(b.interceptorRoots, anyEdge)
	f.ReachWritePath = b.graph.Reachable(writeRoots, anyEdge)
	f.ReachHandler = b.graph.Reachable(b.handlerRoots, anyEdge)
	f.ReachFleet = b.graph.Reachable(b.fleetRoots, fleetScope)
	f.ReachSeam = make(map[*Node]bool, len(f.ReachInterceptor)+len(f.ReachWritePath)+len(f.ReachFleet))
	for _, reach := range []map[*Node]bool{f.ReachInterceptor, f.ReachWritePath, f.ReachFleet} {
		for n := range reach {
			f.ReachSeam[n] = true
		}
	}
	f.Emits = b.computeEmits()
	return f
}

// Reachable computes the forward-reachable node set from roots,
// following only edges the filter admits. Roots themselves are included.
func (g *Graph) Reachable(roots []*Node, edge func(from, to *Node) bool) map[*Node]bool {
	seen := make(map[*Node]bool)
	work := append([]*Node(nil), roots...)
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if n == nil || seen[n] {
			continue
		}
		seen[n] = true
		for _, c := range n.Callees {
			if !seen[c] && edge(n, c) {
				work = append(work, c)
			}
		}
	}
	return seen
}

// CanReach computes, for every node in pkg, whether the node can reach
// (through edges the filter admits, itself included) a node satisfying
// pred. spanhygiene and planeroute use it with the SamePackage filter to
// propagate "touches the span API" / "routes through plane.Do" along
// delegation chains of any depth — the fixpoint each analyzer used to
// re-implement privately.
func (g *Graph) CanReach(pkg *Package, pred func(*Node) bool, edge func(from, to *Node) bool) map[*Node]bool {
	can := make(map[*Node]bool)
	for _, n := range g.PkgNodes(pkg) {
		if pred(n) {
			can[n] = true
		}
	}
	// Backward fixpoint over the package's nodes: a node reaching a
	// satisfied callee is satisfied. Package node counts are small; the
	// quadratic loop mirrors the old per-analyzer fixpoints.
	for changed := true; changed; {
		changed = false
		for _, n := range g.PkgNodes(pkg) {
			if can[n] {
				continue
			}
			for _, c := range n.Callees {
				if can[c] && edge(n, c) {
					can[n] = true
					changed = true
					break
				}
			}
		}
	}
	return can
}

// SamePackage is the edge filter restricting reachability to calls that
// stay inside one package.
func SamePackage(from, to *Node) bool { return from.Pkg == to.Pkg }

// fleetScope is the ReachFleet edge filter: follow a call only when the
// callee's body lives under internal/fleet (the engine package or its
// telemetry control tower).
func fleetScope(from, to *Node) bool { return pathWithin(to.Pkg.Path, "internal/fleet") }

// graphBuilder accumulates the graph and seam roots across packages.
type graphBuilder struct {
	graph            *Graph
	interceptorRoots []*Node
	handlerRoots     []*Node
	fleetRoots       []*Node
}

// collectNodes creates a node for every function declaration and every
// function literal in pkg, before any edges are drawn, so forward
// references resolve.
func (b *graphBuilder) collectNodes(pkg *Package) {
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			decl, isFunc := d.(*ast.FuncDecl)
			if isFunc && decl.Body != nil {
				if fn, ok := pkg.Info.Defs[decl.Name].(*types.Func); ok {
					b.addNode(&Node{Fn: fn, Decl: decl, Pkg: pkg, Body: decl.Body})
				}
			}
			// Literals anywhere in the declaration (function bodies and
			// package-level initializers alike) get their own nodes.
			var encl *ast.FuncDecl
			if isFunc {
				encl = decl
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					b.addNode(&Node{Lit: lit, Decl: encl, Pkg: pkg, Body: lit.Body})
				}
				return true
			})
		}
	}
}

func (b *graphBuilder) addNode(n *Node) {
	b.graph.Nodes = append(b.graph.Nodes, n)
	b.graph.byPkg[n.Pkg] = append(b.graph.byPkg[n.Pkg], n)
	if n.Fn != nil {
		b.graph.ByFn[n.Fn] = n
	} else {
		b.graph.ByLit[n.Lit] = n
	}
}

// walkBodies draws edges, records call sites, detects seam
// registrations, and indexes variable mutation — one walk per file.
func (b *graphBuilder) walkBodies(pkg *Package, f *Facts) {
	w := &bodyWalker{b: b, pkg: pkg, f: f, callFun: make(map[*ast.Ident]bool)}
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			var cur *Node
			w.self = nil
			if decl, ok := d.(*ast.FuncDecl); ok && decl.Body != nil {
				if fn, ok := pkg.Info.Defs[decl.Name].(*types.Func); ok {
					cur = b.graph.ByFn[fn]
					w.self = fn
				}
			}
			w.walk(d, cur)
		}
	}
}

// bodyWalker walks one package's declarations with the current graph
// node threaded through literal boundaries.
type bodyWalker struct {
	b   *graphBuilder
	pkg *Package
	f   *Facts
	// callFun marks identifiers that are the operator of a call
	// expression, so the reference-edge pass does not double-count a
	// plain call as a method value. ast.Inspect visits a CallExpr before
	// its Fun child, so the mark is always in place in time.
	callFun map[*ast.Ident]bool
	// self is the function whose declaration is being walked, so a
	// recursive call does not count as a reference to it.
	self *types.Func
}

// walk visits root attributing calls, references, and mutations to cur;
// nested function literals recurse with the literal as the new cur.
func (w *bodyWalker) walk(root ast.Node, cur *Node) {
	info := w.pkg.Info
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lit := w.b.graph.ByLit[n]
			if cur != nil {
				addEdge(cur, lit)
			}
			w.walk(n.Body, lit)
			return false // the recursive walk owns the body
		case *ast.GoStmt:
			// A goroutine launched inside the fleet package is a shard
			// worker: its body (and everything it reaches in-package)
			// runs concurrently with every other worker.
			if pathWithin(w.pkg.Path, "internal/fleet") {
				w.b.fleetRoots = append(w.b.fleetRoots, w.argNodes([]ast.Expr{n.Call.Fun})...)
			}
		case *ast.CallExpr:
			w.call(n, cur)
			w.convertCallArgs(n)
		case *ast.CompositeLit:
			w.convertElts(n)
		case *ast.ValueSpec:
			if n.Type != nil {
				for i := range n.Names {
					w.convertAt(n.Values, i, info.TypeOf(n.Type))
				}
			}
		case *ast.ReturnStmt:
			if cur != nil {
				results := signatureOf(info, cur).Results()
				for i := 0; i < results.Len(); i++ {
					w.convertAt(n.Results, i, results.At(i).Type())
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				w.convert(n.Value, ch.Elem())
			}
		case *ast.Ident:
			fn, ok := info.Uses[n].(*types.Func)
			if !ok {
				break
			}
			w.reference(fn)
			// Function referenced outside call position: a method value
			// or function value escaping into a variable or argument.
			if cur != nil && !w.callFun[n] {
				if target, ok := w.b.graph.ByFn[fn]; ok {
					addEdge(cur, target)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if v := pkgLevelVar(info, lhs); v != nil {
					markOnce(w.f.mutated, v, lhs.Pos())
				}
				if n.Tok == token.ASSIGN {
					w.convertAt(n.Rhs, i, info.TypeOf(lhs))
				}
			}
		case *ast.IncDecStmt:
			if v := pkgLevelVar(info, n.X); v != nil {
				markOnce(w.f.mutated, v, n.X.Pos())
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if v := pkgLevelVar(info, n.X); v != nil {
					markOnce(w.f.addrTaken, v, n.X.Pos())
				}
			}
		}
		return true
	})
}

// Conversions to an interface. A concrete value converted to an
// interface type can have the interface's methods called on it by
// whoever receives it — net/http calling ServeHTTP on a Handler, go/types
// calling Import on an Importer — so each conversion references the
// concrete methods that implement the interface. Conversions happen in
// assignments, var declarations, composite-literal elements, call
// arguments, returns, channel sends and explicit conversions.

// convert records the conversion of expr's value to type dst.
func (w *bodyWalker) convert(expr ast.Expr, dst types.Type) {
	if iface := methodfulInterface(dst); iface != nil {
		w.implement(w.pkg.Info.TypeOf(expr), iface)
	}
}

// convertAt records the conversion of the i-th value exprs produce to
// dst: exprs[i], or the i-th result when exprs is one multi-value call.
func (w *bodyWalker) convertAt(exprs []ast.Expr, i int, dst types.Type) {
	iface := methodfulInterface(dst)
	if iface == nil || len(exprs) == 0 {
		return
	}
	info := w.pkg.Info
	if tuple, ok := info.TypeOf(exprs[0]).(*types.Tuple); ok && len(exprs) == 1 {
		if i < tuple.Len() {
			w.implement(tuple.At(i).Type(), iface)
		}
	} else if i < len(exprs) {
		w.implement(info.TypeOf(exprs[i]), iface)
	}
}

// methodfulInterface returns dst's underlying interface if it has
// methods a conversion could make reachable, else nil.
func methodfulInterface(dst types.Type) *types.Interface {
	if dst == nil {
		return nil
	}
	if iface, ok := dst.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
		return iface
	}
	return nil
}

// implement references the methods of src that implement iface, when
// src is a concrete type.
func (w *bodyWalker) implement(src types.Type, iface *types.Interface) {
	if src == nil || types.IsInterface(src) {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		obj, _, _ := types.LookupFieldOrMethod(src, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			w.reference(fn)
		}
	}
}

// convertCallArgs records the conversions a call makes: its arguments
// to the parameter types, or its operand for an explicit conversion.
func (w *bodyWalker) convertCallArgs(n *ast.CallExpr) {
	tv := w.pkg.Info.Types[n.Fun]
	if tv.IsType() {
		w.convertAt(n.Args, 0, tv.Type)
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if !sig.Variadic() || n.Ellipsis.IsValid() {
		for i := 0; i < params.Len(); i++ {
			w.convertAt(n.Args, i, params.At(i).Type())
		}
		return
	}
	last := params.Len() - 1
	for i, a := range n.Args {
		if i < last {
			w.convert(a, params.At(i).Type())
		} else if slice, ok := params.At(last).Type().Underlying().(*types.Slice); ok {
			w.convert(a, slice.Elem())
		}
	}
}

// convertElts records the conversions of a composite literal's elements
// to its field, element, or key and value types.
func (w *bodyWalker) convertElts(n *ast.CompositeLit) {
	info := w.pkg.Info
	t := info.TypeOf(n)
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok { // elided &T in a nested literal
		t = p.Elem()
	}
	for i, elt := range n.Elts {
		kv, keyed := elt.(*ast.KeyValueExpr)
		value := elt
		if keyed {
			value = kv.Value
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			var field *types.Var
			if !keyed {
				field = u.Field(i)
			} else if key, ok := kv.Key.(*ast.Ident); ok {
				field, _ = info.Uses[key].(*types.Var)
			}
			if field != nil {
				w.convert(value, field.Type())
			}
		case *types.Map:
			if keyed {
				w.convert(kv.Key, u.Key())
			}
			w.convert(value, u.Elem())
		case *types.Slice:
			w.convert(value, u.Elem())
		case *types.Array:
			w.convert(value, u.Elem())
		}
	}
}

// signatureOf returns the signature of a declared function or literal
// node.
func signatureOf(info *types.Info, n *Node) *types.Signature {
	if n.Fn != nil {
		return n.Fn.Type().(*types.Signature)
	}
	return info.TypeOf(n.Lit).(*types.Signature)
}

// reference records a use of fn for Facts.Referenced.
func (w *bodyWalker) reference(fn *types.Func) {
	fn = fn.Origin()
	if fn == w.self {
		return
	}
	if isInterfaceMethod(fn) {
		w.f.ifaceUsed[fn] = true
	} else if n := w.b.graph.ByFn[fn]; n != nil {
		n.referenced = true
	}
}

// call handles one call expression: the call-site record, the static
// edge (with interface-dispatch fallback), seam-registration detection,
// and the implicit address-taking of a pointer-receiver method call on a
// package-level variable.
func (w *bodyWalker) call(n *ast.CallExpr, cur *Node) {
	info := w.pkg.Info
	callee := calleeFunc(info, n)
	switch fun := ast.Unparen(n.Fun).(type) {
	case *ast.Ident:
		w.callFun[fun] = true
	case *ast.SelectorExpr:
		w.callFun[fun.Sel] = true
	}
	if cur != nil {
		cur.Calls = append(cur.Calls, CallSite{Call: n, Callee: callee})
		if callee != nil {
			if target, ok := w.b.graph.ByFn[callee]; ok {
				addEdge(cur, target)
			} else if isInterfaceMethod(callee) {
				w.b.addDispatchEdges(cur, callee)
			}
		}
	}
	if callee == nil || callee.Pkg() == nil {
		return
	}
	// Seam registrations are detected at the call site so the registered
	// literal (not its encloser) becomes the root.
	switch {
	case callee.Name() == "Use" && strings.HasSuffix(callee.Pkg().Path(), "internal/cloudsim/plane"):
		w.b.interceptorRoots = append(w.b.interceptorRoots, w.argNodes(n.Args)...)
	case callee.Name() == "Do" && strings.HasSuffix(callee.Pkg().Path(), "internal/cloudsim/plane"):
		w.b.handlerRoots = append(w.b.handlerRoots, w.argNodes(n.Args)...)
	}
	// A pointer-receiver method call on an addressable package-level
	// variable implicitly takes its address (sync.Pool.Get,
	// atomic.Value.Load/Store, Mutex.Lock, ...).
	if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			if _, isPtr := sig.Recv().Type().(*types.Pointer); isPtr {
				if v := pkgLevelVar(info, sel.X); v != nil {
					if _, varIsPtr := v.Type().(*types.Pointer); !varIsPtr {
						markOnce(w.f.addrTaken, v, sel.X.Pos())
					}
				}
			}
		}
	}
}

// argNodes resolves call arguments to graph nodes: function literals and
// directly named functions/methods.
func (w *bodyWalker) argNodes(args []ast.Expr) []*Node {
	info := w.pkg.Info
	var out []*Node
	for _, a := range args {
		switch e := ast.Unparen(a).(type) {
		case *ast.FuncLit:
			if n, ok := w.b.graph.ByLit[e]; ok {
				out = append(out, n)
			}
		case *ast.Ident:
			if fn, ok := info.Uses[e].(*types.Func); ok {
				if n, ok := w.b.graph.ByFn[fn]; ok {
					out = append(out, n)
				}
			}
		case *ast.SelectorExpr:
			if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
				if n, ok := w.b.graph.ByFn[fn]; ok {
					out = append(out, n)
				}
			}
		}
	}
	return out
}

// markOnce records the first observed position for v.
func markOnce(m map[*types.Var]token.Pos, v *types.Var, pos token.Pos) {
	if _, ok := m[v]; !ok {
		m[v] = pos
	}
}

// pkgLevelVar resolves expr to the package-level variable at the root of
// its selector/index/deref chain, or nil. For `pkg.Var[i].Field = x` the
// root is Var; for locals, fields of locals, and the blank identifier it
// is nil.
func pkgLevelVar(info *types.Info, expr ast.Expr) *types.Var {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			// pkg.Var: the base resolves to a package name, Sel is the
			// variable itself.
			if base, ok := ast.Unparen(e.X).(*ast.Ident); ok {
				if _, isPkg := info.Uses[base].(*types.PkgName); isPkg {
					expr = e.Sel
					continue
				}
			}
			// x.Field: the root variable is x; descend.
			expr = e.X
		case *ast.Ident:
			v, ok := info.Uses[e].(*types.Var)
			if !ok || v.IsField() {
				return nil
			}
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// isInterfaceMethod reports whether fn is declared on an interface type.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// addDispatchEdges links an interface-method call to every module method
// with the same name whose receiver implements the interface — the
// conservative dispatch fallback. Only interfaces declared inside the
// module fan out; a stdlib interface (io.Writer...) would connect
// everything to everything.
func (b *graphBuilder) addDispatchEdges(from *Node, iface *types.Func) {
	recv := iface.Type().(*types.Signature).Recv().Type()
	var it *types.Interface
	if named, ok := recv.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() == nil || !strings.Contains(obj.Pkg().Path(), "internal/") {
			return // stdlib or external interface: no fallback fan-out
		}
		it, _ = named.Underlying().(*types.Interface)
	} else {
		it, _ = recv.(*types.Interface)
	}
	if it == nil {
		return
	}
	for _, cand := range b.graph.Nodes {
		if cand.Fn == nil || cand.Fn.Name() != iface.Name() {
			continue
		}
		sig, ok := cand.Fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || types.IsInterface(sig.Recv().Type()) {
			continue
		}
		if types.Implements(sig.Recv().Type(), it) {
			addEdge(from, cand)
		}
	}
}

// addEdge appends a deduplicated edge.
func addEdge(from, to *Node) {
	if from == to || to == nil {
		return
	}
	for _, c := range from.Callees {
		if c == to {
			return
		}
	}
	from.Callees = append(from.Callees, to)
}

// outputSink classifies a resolved callee as an order-observable output
// sink: anything whose argument order lands in rendered text, a ledger,
// a log stream, a metric series, or a trace — the places where iterating
// a map becomes a nondeterministic artifact.
func outputSink(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	switch pkg {
	case "fmt":
		switch name {
		case "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println",
			"Sprint", "Sprintf", "Sprintln":
			return true
		}
		return false
	case "strings", "bytes", "bufio", "io", "os":
		return strings.HasPrefix(name, "Write")
	}
	switch {
	case strings.HasSuffix(pkg, "internal/cloudsim/logs"):
		return name == "PutEvents" || name == "AppendLambdaLines"
	case strings.HasSuffix(pkg, "internal/cloudsim/metrics"):
		return name == "Record"
	case strings.HasSuffix(pkg, "internal/cloudsim/trace"):
		return name == "Annotate" || name == "AddUsage"
	case strings.HasSuffix(pkg, "internal/pricing"):
		return name == "Add" // (*pricing.Meter).Add: ledger line order
	}
	return false
}

// computeEmits marks every node that can reach an output sink, through
// module edges or by calling a sink directly — a backward fixpoint over
// the whole graph.
func (b *graphBuilder) computeEmits() map[*Node]bool {
	emits := make(map[*Node]bool)
	for _, n := range b.graph.Nodes {
		for _, cs := range n.Calls {
			if outputSink(cs.Callee) {
				emits[n] = true
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range b.graph.Nodes {
			if emits[n] {
				continue
			}
			for _, c := range n.Callees {
				if emits[c] {
					emits[n] = true
					changed = true
					break
				}
			}
		}
	}
	return emits
}
