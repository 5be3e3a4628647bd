package isum_test

// Serial-vs-parallel benchmarks over a 1k-query TPC-H workload. These are
// the perf-trajectory pair tracked in BENCH_parallel.json (written by
// scripts/ci.sh). At this size a second core buys little: on a 2-core
// runner the recorded speedups sit near 1×; on a single-core runner the
// variants degenerate to the same serial path.
//
// Run just this pair with:
//
//	go test -bench '^(BenchmarkCompress|BenchmarkTune)$' -benchmem

import (
	"context"
	"runtime"
	"testing"

	"isum/internal/advisor"
	"isum/internal/core"
	"isum/internal/cost"
)

func benchParallelism(b *testing.B) map[string]int {
	b.Helper()
	return map[string]int{
		"parallelism=1":   1,
		"parallelism=max": runtime.GOMAXPROCS(0),
	}
}

func BenchmarkCompress(b *testing.B) {
	w, _ := benchWorkload(b, 1000)
	for name, p := range benchParallelism(b) {
		opts := core.DefaultOptions()
		opts.Parallelism = p
		comp := core.New(opts)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := comp.CompressContext(context.Background(), w, 30); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTune(b *testing.B) {
	w, o := benchWorkload(b, 1000)
	copts := core.DefaultOptions()
	res, err := core.New(copts).CompressContext(context.Background(), w, 32)
	if err != nil {
		b.Fatal(err)
	}
	cw := w.WeightedSubset(res.Indices, res.Weights)
	for name, p := range benchParallelism(b) {
		opts := advisor.DefaultOptions()
		opts.MaxIndexes = 10
		opts.Parallelism = p
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Fresh optimizer per iteration: every run compiles the
				// same plans, so the two variants compare compute, not
				// how much an earlier iteration left behind.
				if _, err := advisor.New(cost.NewOptimizer(o.Catalog()), opts).TuneContext(context.Background(), cw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
