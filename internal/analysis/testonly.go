package analysis

import (
	"go/ast"
	"go/types"
)

// TestOnly keeps the exported surface lean: an exported function or
// method under internal/ that no loaded package names is either dead or
// reached only from tests (test files are never loaded). Delete it, or
// move it into the package's export_test.go so the shipped build stops
// carrying it. A reference is any mention outside the function's own
// declaration: a call, a method or function value, an alias in a
// package-level initializer, a call through an interface method the
// function implements, or the conversion of a value whose method it is
// to an interface the method implements (net/http calls ServeHTTP on
// the Handler a program hands it). String and Error methods count as
// referenced, since fmt and errors reach them through interfaces on any
// value. Functions kept for a documented caller carry a justified
// .diylint-allow entry.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc:  "exported functions under internal/ must have a non-test reference; delete them or move them into export_test.go",
	Run:  runTestOnly,
}

func runTestOnly(p *Pass) {
	if !pathWithin(p.Pkg.Path, "internal") {
		return
	}
	for _, file := range p.Pkg.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || !decl.Name.IsExported() {
				continue
			}
			fn, ok := p.Pkg.Info.Defs[decl.Name].(*types.Func)
			if !ok || isStringerOrError(fn) || p.Facts.Referenced(fn) {
				continue
			}
			p.Reportf(decl.Name.Pos(),
				"exported %s has no non-test reference; delete it or move it into export_test.go",
				funcName(fn))
		}
	}
}

// isStringerOrError reports whether fn is a String() string or
// Error() string method: fmt and errors call those on any value handed
// to them, through interfaces the loaded program never names.
func isStringerOrError(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || (fn.Name() != "String" && fn.Name() != "Error") {
		return false
	}
	return sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		types.Identical(sig.Results().At(0).Type(), types.Typ[types.String])
}

// funcName renders fn as "Name" or "(*Recv).Name" / "Recv.Name".
func funcName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return fn.Name()
	}
	recv := sig.Recv().Type()
	ptr := ""
	if p, ok := recv.(*types.Pointer); ok {
		recv, ptr = p.Elem(), "*"
	}
	name := types.TypeString(recv, func(*types.Package) string { return "" })
	if ptr != "" {
		return "(" + ptr + name + ")." + fn.Name()
	}
	return name + "." + fn.Name()
}
