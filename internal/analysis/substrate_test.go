package analysis

import (
	"go/types"
	"testing"
)

// graphFacts computes substrate facts over just the graphfix fixture
// package and returns them with the package.
func graphFacts(t *testing.T) (*Facts, *Package) {
	t.Helper()
	prog := loadFixtures(t)
	sub := subProgram(prog, "graphfix")
	if len(sub.Pkgs) != 1 {
		t.Fatalf("want 1 graphfix package, loaded %d", len(sub.Pkgs))
	}
	return ComputeFacts(sub), sub.Pkgs[0]
}

// declNode finds the node for a declared function or method by receiver
// type name ("" for plain functions) and name.
func declNode(t *testing.T, facts *Facts, pkg *Package, recv, name string) *Node {
	t.Helper()
	for _, n := range facts.Graph.PkgNodes(pkg) {
		if n.Fn != nil && n.Fn.Name() == name && recvTypeName(n.Fn) == recv {
			return n
		}
	}
	t.Fatalf("no node for %s.%s in %s", recv, name, pkg.Path)
	return nil
}

// litNode finds the single literal node enclosed by the named
// declaration.
func litNode(t *testing.T, facts *Facts, pkg *Package, enclosing string) *Node {
	t.Helper()
	for _, n := range facts.Graph.PkgNodes(pkg) {
		if n.Lit != nil && n.Decl != nil && n.Decl.Name.Name == enclosing {
			return n
		}
	}
	t.Fatalf("no literal node enclosed by %s in %s", enclosing, pkg.Path)
	return nil
}

func hasCallee(from, to *Node) bool {
	for _, c := range from.Callees {
		if c == to {
			return true
		}
	}
	return false
}

// TestSubstrateCycle checks that mutually recursive functions get edges
// both ways and that the reachability fixpoint terminates on the cycle
// with both members in the set.
func TestSubstrateCycle(t *testing.T) {
	facts, pkg := graphFacts(t)
	ping := declNode(t, facts, pkg, "", "Ping")
	pong := declNode(t, facts, pkg, "", "Pong")
	if !hasCallee(ping, pong) || !hasCallee(pong, ping) {
		t.Errorf("cycle edges missing: Ping->Pong=%v Pong->Ping=%v", hasCallee(ping, pong), hasCallee(pong, ping))
	}
	reach := facts.Graph.Reachable([]*Node{ping}, SamePackage)
	if !reach[ping] || !reach[pong] {
		t.Errorf("reachability over the cycle: Ping=%v Pong=%v, want both true", reach[ping], reach[pong])
	}
}

// TestSubstrateMethodValue checks that binding a method to a value
// (f := t.M; f()) produces a reference edge to the method even though
// the call through f is unresolvable.
func TestSubstrateMethodValue(t *testing.T) {
	facts, pkg := graphFacts(t)
	use := declNode(t, facts, pkg, "", "UseMethodValue")
	m := declNode(t, facts, pkg, "T", "M")
	if !hasCallee(use, m) {
		t.Errorf("UseMethodValue has no reference edge to T.M; callees: %v", calleeNames(use))
	}
}

// TestSubstrateInterfaceDispatch checks the module-interface fallback:
// a call through Ringer fans out to every implementing method.
func TestSubstrateInterfaceDispatch(t *testing.T) {
	facts, pkg := graphFacts(t)
	ringAll := declNode(t, facts, pkg, "", "RingAll")
	bell := declNode(t, facts, pkg, "Bell", "Ring")
	gong := declNode(t, facts, pkg, "Gong", "Ring")
	if !hasCallee(ringAll, bell) || !hasCallee(ringAll, gong) {
		t.Errorf("dispatch fallback missing edges: ->Bell.Ring=%v ->Gong.Ring=%v; callees: %v",
			hasCallee(ringAll, bell), hasCallee(ringAll, gong), calleeNames(ringAll))
	}
}

// TestSubstrateLiteralNode checks that a function literal is its own
// node — named and attributed to its enclosing declaration — with an
// encloser edge in and its call edges out.
func TestSubstrateLiteralNode(t *testing.T) {
	facts, pkg := graphFacts(t)
	withLit := declNode(t, facts, pkg, "", "WithLit")
	lit := litNode(t, facts, pkg, "WithLit")
	if got := lit.Name(); got != "WithLit" {
		t.Errorf("literal node Name() = %q, want enclosing decl name %q", got, "WithLit")
	}
	if !hasCallee(withLit, lit) {
		t.Error("no encloser edge WithLit -> literal")
	}
	ping := declNode(t, facts, pkg, "", "Ping")
	if !hasCallee(lit, ping) {
		t.Errorf("literal has no call edge to Ping; callees: %v", calleeNames(lit))
	}
}

// TestSubstrateEmits checks the output-emission fixpoint: direct
// printers, their transitive callers, and emitting methods hold the
// fact; silent functions do not.
func TestSubstrateEmits(t *testing.T) {
	facts, pkg := graphFacts(t)
	for _, tc := range []struct {
		recv, name string
		want       bool
	}{
		{"", "Emit", true},
		{"", "CallsEmit", true},
		{"Gong", "Ring", true},
		{"", "RingAll", true}, // dispatch can land on Gong.Ring, which emits
		{"Bell", "Ring", false},
		{"", "Ping", false},
		{"", "Bump", false},
	} {
		n := declNode(t, facts, pkg, tc.recv, tc.name)
		if got := facts.Emits[n]; got != tc.want {
			t.Errorf("Emits[%s.%s] = %v, want %v", tc.recv, tc.name, got, tc.want)
		}
	}
}

// TestSubstrateVarFacts checks the package-variable indexes: a mutated
// variable is reported with a position, a read-only one is not.
func TestSubstrateVarFacts(t *testing.T) {
	facts, pkg := graphFacts(t)
	lookup := func(name string) *types.Var {
		t.Helper()
		v, ok := pkg.Types.Scope().Lookup(name).(*types.Var)
		if !ok {
			t.Fatalf("no package-level var %q in %s", name, pkg.Path)
		}
		return v
	}
	hits, reads := lookup("hits"), lookup("reads")
	if pos, ok := facts.VarMutated(hits); !ok || !pos.IsValid() {
		t.Errorf("VarMutated(hits) = (%v, %v), want a valid position", pos, ok)
	}
	if _, ok := facts.VarMutated(reads); ok {
		t.Error("VarMutated(reads) = true, want false: reads is only ever read")
	}
	if _, ok := facts.VarAddrTaken(reads); ok {
		t.Error("VarAddrTaken(reads) = true, want false")
	}
}

func calleeNames(n *Node) []string {
	var out []string
	for _, c := range n.Callees {
		out = append(out, c.Name())
	}
	return out
}

// recvTypeName reports the bare receiver type name of a method ("" for
// plain functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}
