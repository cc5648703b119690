package analysis

import "go/types"

// simScopes are the module subtrees that must stay on the injected
// virtual timeline: the service simulators, the applications driven
// through them, and the workload generators.
var simScopes = []string{"internal/cloudsim", "internal/apps", "internal/workload", "internal/fleet"}

// inSimScope reports whether pkgPath is simulator/app/workload code.
func inSimScope(pkgPath string) bool {
	for _, s := range simScopes {
		if pathWithin(pkgPath, s) {
			return true
		}
	}
	return false
}

// wallclockForbidden are the time-package functions that read or wait
// on the process wall clock. Types (time.Time, time.Duration) and pure
// constructors (time.Date, time.Unix) remain fine.
var wallclockForbidden = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Since":     true,
	"Until":     true,
}

// WallClock flags wall-clock reads in simulator, app, and workload
// code, internal/cloudsim/clock included. All of it takes time from the
// cloud's *clock.Virtual so a month of billing or a 20-second long poll
// replays identically on a virtual timeline.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "simulator/app/workload code must take time from the cloud's *clock.Virtual, never the time package's wall clock",
	Run:  runWallClock,
}

func runWallClock(p *Pass) {
	path := p.Pkg.Path
	if !inSimScope(path) {
		return
	}
	for ident, obj := range p.Pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			continue
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			continue // methods on time.Time/Timer values are fine
		}
		if wallclockForbidden[fn.Name()] {
			p.Reportf(ident.Pos(),
				"time.%s reads the wall clock; take time from the cloud's *clock.Virtual so virtual-timeline replay stays deterministic",
				fn.Name())
		}
	}
}
