package analysis

import "go/types"

// globalrandAllowed are the math/rand package-level functions that do
// not touch the global source: they build the injected, seeded
// generators the simulator requires.
var globalrandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// GlobalRand flags draws from the process-global math/rand source in
// simulator, app, and workload code. The global source is seeded from
// runtime entropy, so any use makes latency samples and workload
// arrivals unreproducible; randomness must come from an injected
// *rand.Rand built with workload.NewRand(seed), which draws
// rand.New(rand.NewSource(seed))'s exact sequence but seeds in O(1).
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "simulator/app/workload randomness must come from an injected seeded *rand.Rand, never math/rand's global source",
	Run:  runGlobalRand,
}

func runGlobalRand(p *Pass) {
	if !inSimScope(p.Pkg.Path) {
		return
	}
	for ident, obj := range p.Pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		pkgPath := fn.Pkg().Path()
		if pkgPath != "math/rand" && pkgPath != "math/rand/v2" {
			continue
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			continue // methods on an injected *rand.Rand are the goal
		}
		if globalrandAllowed[fn.Name()] {
			continue
		}
		p.Reportf(ident.Pos(),
			"rand.%s draws from the process-global source; draw from an injected seeded *rand.Rand so runs are reproducible",
			fn.Name())
	}
}
