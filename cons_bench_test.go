package isum_test

// Million-query-scale benchmark for template hash-consing, recorded to
// BENCH_cons.json by scripts/ci.sh. BenchmarkCompressConsed cons=off vs
// cons=on is the single-core speedup of consing itself: a 10⁵-query
// template-expanded Scale-M workload collapses from 10⁵ per-query states
// to ~2×10³ per-template states before the greedy loop runs.
//
// Run just this pair with:
//
//	go test -bench '^BenchmarkCompressConsed$' -benchtime 1x

import (
	"sync"
	"testing"

	"isum/internal/benchmarks"
	"isum/internal/core"
	"isum/internal/cost"
	"isum/internal/workload"
)

const (
	scaleBenchQueries   = 100_000
	scaleBenchTemplates = 2_000
	scaleBenchK         = 40
)

var scaleBench struct {
	once sync.Once
	w    *workload.Workload
	err  error
}

// scaleBenchWorkload builds (once per test binary) the 10⁵-query Scale-M
// workload with costs filled — the setup is minutes of parsing and
// costing, shared across benchmark variants and iterations.
func scaleBenchWorkload(b *testing.B) *workload.Workload {
	b.Helper()
	scaleBench.once.Do(func() {
		gen := benchmarks.ScaleM(1, scaleBenchTemplates)
		w, err := gen.Workload(scaleBenchQueries, 1)
		if err != nil {
			scaleBench.err = err
			return
		}
		cost.NewOptimizer(gen.Cat).FillCosts(w)
		scaleBench.w = w
	})
	if scaleBench.err != nil {
		b.Fatal(scaleBench.err)
	}
	return scaleBench.w
}

func BenchmarkCompressConsed(b *testing.B) {
	w := scaleBenchWorkload(b)
	for _, v := range []struct {
		name string
		cons bool
	}{{"cons=off", false}, {"cons=on", true}} {
		opts := core.DefaultOptions()
		opts.ConsTemplates = v.cons
		opts.Parallelism = 1
		comp := core.New(opts)
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				comp.Compress(w, scaleBenchK)
			}
		})
	}
}
