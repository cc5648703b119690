package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// LogGroup guards the log-group registry (logs/names.go): a typo'd
// group name silently forks the evidence trail into a group no query
// will ever look at, so group names may only be minted in the logs
// package and must reach the store API through a registry expression
// — a logs-package constant (LogGroupKMSAudit) or a logs-package
// deriver (PlaneGroup, LambdaGroup). The logs package itself is exempt
// from the call-site rule: the store is the one place allowed to treat
// group names as data (it ranges over them to render the inventory).
var LogGroup = &Analyzer{
	Name: "loggroup",
	Doc:  "log group names are registry expressions: minted in internal/cloudsim/logs, lowercase slash-separated, passed by constant or deriver call",
	Run:  runLogGroup,
}

// logGroupRE mirrors logs.groupRE: lowercase slash-separated segments,
// each starting with a letter.
var logGroupRE = regexp.MustCompile(`^[a-z][a-z0-9-]*(/[a-z][a-z0-9-]*)+$`)

const logsPkgDir = "internal/cloudsim/logs"

// logGroupArgMethods are the (*logs.Service) methods whose first
// argument is a group name.
var logGroupArgMethods = map[string]bool{
	"Tail":  true,
	"Query": true,
}

func runLogGroup(p *Pass) {
	inRegistry := strings.HasSuffix(p.Pkg.Path, logsPkgDir)

	// Rule 1: LogGroup*-prefixed string constants are the registry's
	// naming convention; minting one elsewhere forks the evidence
	// trail, and a registry constant that is not lowercase
	// slash-separated fails the store's own validation.
	for _, file := range p.Pkg.Files {
		for _, d := range file.Decls {
			gen, ok := d.(*ast.GenDecl)
			if !ok || gen.Tok != token.CONST {
				continue
			}
			for _, spec := range gen.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "LogGroup") {
						continue
					}
					c, ok := p.Pkg.Info.Defs[name].(*types.Const)
					if !ok || c.Val().Kind() != constant.String {
						continue
					}
					if !inRegistry {
						p.Reportf(name.Pos(),
							"constant %s mints a log group name outside the registry; declare it in %s so queries and the inventory can see the group",
							name.Name, logsPkgDir)
					}
					if val := constant.StringVal(c.Val()); !logGroupRE.MatchString(val) {
						p.Reportf(name.Pos(),
							"log group constant %s = %q is not lowercase slash-separated segments; logs.ValidGroupName rejects it",
							name.Name, val)
					}
				}
			}
		}
	}

	// Rule 2: the group argument of every store-API call is a registry
	// expression — a constant declared in the logs package, or a call
	// into it (PlaneGroup, LambdaGroup). Call sites come from the
	// substrate graph — already resolved once for every analyzer.
	if inRegistry {
		return
	}
	for _, node := range p.Facts.Graph.PkgNodes(p.Pkg) {
		for _, cs := range node.Calls {
			call, callee := cs.Call, cs.Callee
			if callee == nil || callee.Pkg() == nil ||
				!strings.HasSuffix(callee.Pkg().Path(), logsPkgDir) ||
				!logGroupArgMethods[callee.Name()] || len(call.Args) < 1 {
				continue
			}
			sig, ok := callee.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				continue
			}
			if logGroupArgIsRegistryExpr(p.Pkg.Info, call.Args[0]) {
				continue
			}
			p.Reportf(call.Args[0].Pos(),
				"log group passed to (*logs.Service).%s is not a registry expression; use a LogGroup* constant or a deriver (PlaneGroup, LambdaGroup) from %s so the group cannot typo-fork",
				callee.Name(), logsPkgDir)
		}
	}
}

// logGroupArgIsRegistryExpr reports whether expr resolves to a
// constant declared in the logs package or a call into it.
func logGroupArgIsRegistryExpr(info *types.Info, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		c, ok := info.Uses[e].(*types.Const)
		return ok && c.Pkg() != nil && strings.HasSuffix(c.Pkg().Path(), logsPkgDir)
	case *ast.SelectorExpr:
		c, ok := info.Uses[e.Sel].(*types.Const)
		return ok && c.Pkg() != nil && strings.HasSuffix(c.Pkg().Path(), logsPkgDir)
	case *ast.CallExpr:
		fn := calleeFunc(info, e)
		return fn != nil && fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), logsPkgDir)
	}
	return false
}
