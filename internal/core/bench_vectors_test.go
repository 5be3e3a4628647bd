package core

import (
	"context"
	"testing"

	"isum/internal/features"
)

// BenchmarkSummaryDelta measures one greedy-round update sweep — apply
// the selected query's update to every other query and compute its
// incremental summary delta — on a TPC-H workload. impl=map is the
// retained pre-SparseVec touched-map implementation (the oracle);
// impl=sparse is the production merge-join path. BENCH_vectors.json is
// generated from this benchmark.
func BenchmarkSummaryDelta(b *testing.B) {
	const n = 64
	w := generatorWorkload(b, "tpch", n)
	opts := DefaultOptions()

	b.Run("impl=map", func(b *testing.B) {
		states, keys := oracleBuildStates(w, opts)
		sel := states[0]
		sel.selected = true
		snap := make([]mapVec, len(states))
		utils := make([]float64, len(states))
		for i, s := range states {
			snap[i] = s.vec.Clone()
			utils[i] = s.util
		}
		b.ReportAllocs()
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			for _, s := range states[1:] {
				_ = oracleApplyUpdateWithDelta(sel, s, opts.Update, true, keys)
			}
			b.StopTimer()
			for i, s := range states[1:] {
				s.vec = snap[i+1].Clone()
				s.util = utils[i+1]
			}
			b.StartTimer()
		}
	})

	b.Run("impl=sparse", func(b *testing.B) {
		states, err := BuildStatesContext(context.Background(), w, opts)
		if err != nil {
			b.Fatal(err)
		}
		sel := states[0]
		sel.Selected = true
		snap := make([]features.SparseVec, len(states))
		utils := make([]float64, len(states))
		for i, s := range states {
			snap[i] = s.Vec.Clone()
			utils[i] = s.Utility
		}
		b.ReportAllocs()
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			for _, s := range states[1:] {
				r := applyUpdateWithDelta(sel, s, opts.Update, true)
				if r.hasDelta {
					r.vec.Release()
				}
			}
			b.StopTimer()
			for i, s := range states[1:] {
				s.Vec.Release()
				s.Vec = snap[i+1].Clone()
				s.Utility = utils[i+1]
			}
			b.StartTimer()
		}
	})
}
