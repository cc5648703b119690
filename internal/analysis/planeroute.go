package analysis

import (
	"go/types"
	"strings"
)

// PlaneRoute guards the request-plane unification: every exported
// cloudsim service method that accepts a *sim.Context must route the
// call through plane.Do (or DoHandler) — directly or via a
// same-package helper — so
// the fixed trace/auth/latency/meter pipeline cannot be bypassed by a
// service quietly reverting to a bespoke begin path. Deliberate
// exceptions (e.g. the lambda connection suspend/billing paths, whose
// accounting is per-connection rather than per-call) carry a
// .diylint-allow justification.
var PlaneRoute = &Analyzer{
	Name: "planeroute",
	Doc:  "exported cloudsim service methods taking *sim.Context must route calls through plane.Do",
	Run:  runPlaneRoute,
}

func runPlaneRoute(p *Pass) {
	path := p.Pkg.Path
	if !pathWithin(path, "internal/cloudsim") {
		return
	}
	// The plane is the pipeline itself, and the sim/trace substrate is
	// what the pipeline is built from; none of them route through Do.
	if strings.HasSuffix(path, "internal/cloudsim/sim") ||
		strings.HasSuffix(path, "internal/cloudsim/trace") ||
		strings.HasSuffix(path, "internal/cloudsim/plane") {
		return
	}

	// A node "routes" when one of its own call sites is plane.Do; the
	// substrate propagates routing through same-package delegation, so
	// wrappers like kms.do or dynamo.put count for their callers.
	routes := p.Facts.Graph.CanReach(p.Pkg, func(n *Node) bool {
		for _, cs := range n.Calls {
			callee := cs.Callee
			if callee == nil || callee.Pkg() == nil {
				continue
			}
			if isPlaneDo(callee) {
				return true
			}
		}
		return false
	}, SamePackage)

	for _, n := range p.Facts.Graph.PkgNodes(p.Pkg) {
		if n.Fn == nil || routes[n] {
			continue
		}
		decl := n.Decl
		if decl.Recv == nil || !decl.Name.IsExported() {
			continue
		}
		if !hasSimContextParam(p.Pkg.Info, decl) {
			continue
		}
		p.Reportf(decl.Name.Pos(),
			"exported method %s accepts a *sim.Context but never routes through plane.Do; service calls must pass the request plane (trace, auth, latency, metering) or carry a .diylint-allow justification",
			n.Fn.Name())
	}
}

// isPlaneDo reports whether fn is one of the request plane's entry
// points, (*plane.Plane).Do or DoHandler.
func isPlaneDo(fn *types.Func) bool {
	return (fn.Name() == "Do" || fn.Name() == "DoHandler") &&
		strings.HasSuffix(fn.Pkg().Path(), "internal/cloudsim/plane")
}
