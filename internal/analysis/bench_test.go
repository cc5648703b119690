package analysis

import (
	"path/filepath"
	"testing"
)

// benchFindings keeps the per-iteration result live so the compiler
// cannot elide the analysis.
var benchFindings []Finding

// BenchmarkDiylint runs the full thirteen-analyzer suite — substrate pass
// included — over the repo's own tree. Loading and type-checking happen
// once outside the timer; the measured work is what grows as analyzers
// are added, so a substrate regression (an accidental per-analyzer
// re-walk, a quadratic fixpoint) shows up in the snapshot diff.
func BenchmarkDiylint(b *testing.B) {
	root, err := FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := Load(root, []string{filepath.Join(root, "...")})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFindings = Run(prog, Analyzers())
	}
	if len(benchFindings) == 0 {
		b.Fatal("expected pre-allowlist findings from the repo tree")
	}
}
