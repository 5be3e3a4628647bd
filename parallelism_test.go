package isum_test

// Serial/parallel equivalence: the headline invariant of the parallel
// pipeline is that Parallelism is a pure wall-clock knob. Compression must
// select the same queries with bit-identical weights and benefits, and
// tuning must recommend the same configuration, at parallelism 1, 2, and 8.

import (
	"context"
	"math"
	"strings"
	"testing"

	"isum/internal/advisor"
	"isum/internal/benchmarks"
	"isum/internal/core"
	"isum/internal/cost"
	"isum/internal/workload"
)

const equivEps = 1e-9

func equivWorkload(t *testing.T, gen *benchmarks.Generator, n int) (*workload.Workload, *cost.Optimizer) {
	t.Helper()
	w, err := gen.Workload(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := cost.NewOptimizer(gen.Cat)
	fillCosts(t, o, w)
	return w, o
}

func TestCompressSerialParallelEquivalence(t *testing.T) {
	workloads := []struct {
		name string
		gen  *benchmarks.Generator
		n    int
	}{
		{"TPC-H", benchmarks.TPCH(10), 110},
		{"TPC-DS", benchmarks.TPCDS(10), 130},
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{"isum", core.DefaultOptions()},
		{"isum-s", core.ISUMSOptions()},
		{"isum-cons", func() core.Options {
			o := core.DefaultOptions()
			o.ConsTemplates = true
			return o
		}()},
		{"allpairs", func() core.Options {
			o := core.DefaultOptions()
			o.Algorithm = core.AllPairs
			return o
		}()},
	}
	for _, wl := range workloads {
		w, _ := equivWorkload(t, wl.gen, wl.n)
		for _, v := range variants {
			t.Run(wl.name+"/"+v.name, func(t *testing.T) {
				serialOpts := v.opts
				serialOpts.Parallelism = 1
				ref, err := core.New(serialOpts).CompressContext(context.Background(), w, 15)
				if err != nil {
					t.Fatal(err)
				}
				if len(ref.Indices) == 0 {
					t.Fatal("serial run selected nothing")
				}
				for _, p := range []int{2, 8} {
					parOpts := v.opts
					parOpts.Parallelism = p
					got, err := core.New(parOpts).CompressContext(context.Background(), w, 15)
					if err != nil {
						t.Fatal(err)
					}
					if len(got.Indices) != len(ref.Indices) {
						t.Fatalf("parallelism %d: selected %d queries, serial selected %d",
							p, len(got.Indices), len(ref.Indices))
					}
					for i := range ref.Indices {
						if got.Indices[i] != ref.Indices[i] {
							t.Fatalf("parallelism %d: selection diverged at %d: %v vs %v",
								p, i, got.Indices, ref.Indices)
						}
						if math.Float64bits(got.Weights[i]) != math.Float64bits(ref.Weights[i]) {
							t.Fatalf("parallelism %d: weight %d is %v, serial %v", p, i, got.Weights[i], ref.Weights[i])
						}
						if math.Float64bits(got.SelectionBenefits[i]) != math.Float64bits(ref.SelectionBenefits[i]) {
							t.Fatalf("parallelism %d: benefit %d is %v, serial %v",
								p, i, got.SelectionBenefits[i], ref.SelectionBenefits[i])
						}
					}
				}
			})
		}
	}
}

func TestTuneSerialParallelEquivalence(t *testing.T) {
	workloads := []struct {
		name string
		gen  *benchmarks.Generator
		n    int
	}{
		{"TPC-H", benchmarks.TPCH(10), 66},
		{"TPC-DS", benchmarks.TPCDS(10), 60},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			w, o := equivWorkload(t, wl.gen, wl.n)
			copts := core.DefaultOptions()
			copts.Parallelism = 1
			res, err := core.New(copts).CompressContext(context.Background(), w, 12)
			if err != nil {
				t.Fatal(err)
			}
			cw := w.WeightedSubset(res.Indices, res.Weights)

			tuneAt := func(p int) *advisor.Result {
				opts := advisor.DefaultOptions()
				opts.MaxIndexes = 8
				opts.Parallelism = p
				return tune(t, o, cw, opts)
			}
			configIDs := func(r *advisor.Result) string {
				var ids []string
				for _, ix := range r.Config.Indexes() {
					ids = append(ids, ix.ID())
				}
				return strings.Join(ids, " | ")
			}

			// Warm the optimizer's elision memo first: the initial tune on
			// a fresh optimizer records the atomic costs that later runs
			// elide, so only warm runs have parallelism-independent
			// OptimizerCalls. Recommendations are identical either way
			// (pinned by TestElisionDoesNotChangeOutput).
			tuneAt(1)
			ref := tuneAt(1)
			if ref.Config.Len() == 0 {
				t.Fatal("serial tuning recommended nothing")
			}
			refIDs := configIDs(ref)
			for _, p := range []int{2, 8} {
				got := tuneAt(p)
				if ids := configIDs(got); ids != refIDs {
					t.Fatalf("parallelism %d recommended a different configuration:\n%s\nvs serial:\n%s",
						p, ids, refIDs)
				}
				if d := math.Abs(got.FinalCost - ref.FinalCost); d > equivEps*math.Max(1, ref.FinalCost) {
					t.Fatalf("parallelism %d: final cost drifted by %g", p, d)
				}
				if got.OptimizerCalls != ref.OptimizerCalls {
					t.Fatalf("parallelism %d made %d optimizer calls, serial made %d",
						p, got.OptimizerCalls, ref.OptimizerCalls)
				}

				pct, base, final, err := advisor.EvaluateImprovementContext(context.Background(), o, w, got.Config, p)
				if err != nil {
					t.Fatal(err)
				}
				refPct, refBase, refFinal, err := advisor.EvaluateImprovementContext(context.Background(), o, w, ref.Config, 1)
				if err != nil {
					t.Fatal(err)
				}
				if pct != refPct || base != refBase || final != refFinal {
					t.Fatalf("parallelism %d: evaluation diverged: (%v %v %v) vs (%v %v %v)",
						p, pct, base, final, refPct, refBase, refFinal)
				}
			}
		})
	}
}
