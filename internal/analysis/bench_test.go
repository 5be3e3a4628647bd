package analysis

import (
	"path/filepath"
	"testing"
)

// BenchmarkLintModule records the analyzer suite's wall time over the
// whole module — load + type-check + all eight analyzers — so CI's
// BENCH_lint.json catches analyzer slowdowns the same way
// BENCH_vectors.json catches kernel regressions. One iteration is a full
// cold run; the loader is not reused across iterations so the numbers
// stay comparable as packages are added.
func BenchmarkLintModule(b *testing.B) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkgs, err := LoadModule(root)
		if err != nil {
			b.Fatalf("LoadModule: %v", err)
		}
		total := 0
		for _, pkg := range pkgs {
			total += len(RunPackage(pkg, Analyzers()))
		}
		if total != 0 {
			b.Fatalf("module has %d findings; lint must be clean before benchmarking", total)
		}
	}
}
