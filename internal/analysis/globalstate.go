package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GlobalState guards the fleet engine's sharding premise: every account
// shard must own its world, so simulator, app, and workload packages may
// not keep mutable state at package level — two shards running in the
// same process would alias it and replay would stop being bit-identical
// (or worse, race). State hangs off Cloud or the owning service struct.
// A package-level variable is mutable when the loaded program ever
// assigns it (directly or through an index/field) or aliases it (& or a
// pointer-receiver method call such as sync.Pool.Get, Mutex.Lock,
// atomic.Value.Store). Immutable tables, error sentinels, and compiled
// regexps are naturally silent. Deliberate process-wide state — a
// sync.Pool of column chunks, a registered-at-init op registry —
// carries a justified .diylint-allow entry.
var GlobalState = &Analyzer{
	Name: "globalstate",
	Doc:  "sim/app/workload packages must not declare mutable package-level variables; state hangs off Cloud/service structs so accounts can shard",
	Run:  runGlobalState,
}

func runGlobalState(p *Pass) {
	if !inSimScope(p.Pkg.Path) {
		return
	}
	for _, file := range p.Pkg.Files {
		for _, d := range file.Decls {
			gen, ok := d.(*ast.GenDecl)
			if !ok || gen.Tok != token.VAR {
				continue
			}
			for _, spec := range gen.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					v, ok := p.Pkg.Info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					switch {
					case mutatedVar(p.Facts, v):
						p.Reportf(name.Pos(),
							"package-level variable %s is assigned at runtime; move it onto the Cloud or service struct so account shards cannot alias it",
							name.Name)
					case aliasedVar(p.Facts, v):
						p.Reportf(name.Pos(),
							"package-level variable %s is aliased at runtime (address taken or pointer-receiver method called); move it onto the Cloud or service struct so account shards cannot alias it",
							name.Name)
					}
				}
			}
		}
	}
}

func mutatedVar(f *Facts, v *types.Var) bool {
	_, ok := f.VarMutated(v)
	return ok
}

func aliasedVar(f *Facts, v *types.Var) bool {
	_, ok := f.VarAddrTaken(v)
	return ok
}
