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
				comp.Compress(w, 30)
			}
		})
	}
}

func BenchmarkTune(b *testing.B) {
	w, o := benchWorkload(b, 1000)
	copts := core.DefaultOptions()
	cw, _ := core.New(copts).CompressedWorkload(w, 32)
	for name, p := range benchParallelism(b) {
		opts := advisor.DefaultOptions()
		opts.MaxIndexes = 10
		opts.Parallelism = p
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Fresh optimizer per iteration: every run pays the same
				// all-miss what-if costs, so the two variants compare
				// compute, not cache hit rates. Elision off: this pair
				// isolates the parallel speedup; the elided-vs-not
				// comparison lives in BenchmarkTuneElided.
				oi := cost.NewOptimizer(o.Catalog())
				oi.SetElision(false)
				advisor.New(oi, opts).Tune(cw)
			}
		})
	}
}

// BenchmarkTuneElided is the what-if elision trajectory pair tracked in
// BENCH_whatif.json: the same tuning run with elision off and on. Both
// variants recommend the identical configuration (pinned by
// TestElisionDoesNotChangeOutput); the elided one answers part of the
// probes from memoized atomic costs and bound pruning instead of fresh
// optimizer calls. Each variant reports whatif-calls/op (real calls the
// optimizer served per tune) and elided/op (probes answered without one).
//
// Run just this pair with:
//
//	go test -bench '^BenchmarkTuneElided$' -benchmem
func BenchmarkTuneElided(b *testing.B) {
	w, o := benchWorkload(b, 1000)
	copts := core.DefaultOptions()
	cw, _ := core.New(copts).CompressedWorkload(w, 32)
	for _, v := range []struct {
		name  string
		elide bool
	}{
		{"elide=off", false},
		{"elide=on", true},
	} {
		opts := advisor.DefaultOptions()
		opts.MaxIndexes = 10
		opts.Parallelism = 1
		b.Run(v.name, func(b *testing.B) {
			var calls, elided int64
			for i := 0; i < b.N; i++ {
				// Fresh optimizer per iteration: cold caches and a cold
				// memo, so the variants compare one full tune each.
				oi := cost.NewOptimizer(o.Catalog())
				oi.SetElision(v.elide)
				res := advisor.New(oi, opts).Tune(cw)
				calls += res.OptimizerCalls
				hits, _, _ := oi.ElideStats()
				elided += hits
			}
			b.ReportMetric(float64(calls)/float64(b.N), "whatif-calls/op")
			b.ReportMetric(float64(elided)/float64(b.N), "elided/op")
		})
	}
}
