package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"isum/internal/workload"
)

// TestCompressCostScalingInvariant checks an invariance that follows
// from the paper's definitions: U(q) = Δ(q)/ΣΔ and Δ is linear in cost
// (Definition 2), so multiplying every query's cost by c > 0 leaves the
// compressed selection unchanged. For c a power of two every product is
// exact, so weights and selection benefits are bit-equal too. Other
// factors round differently and hold only up to the near-tie contract
// (DESIGN.md §18), so they are not asserted here.
func TestCompressCostScalingInvariant(t *testing.T) {
	const n, k = 600, 20
	allPairs := DefaultOptions()
	allPairs.Algorithm = AllPairs
	cons := DefaultOptions()
	cons.ConsTemplates = true
	variants := []struct {
		name string
		opts Options
		n    int // AllPairs is O(k·n²), so it runs on a prefix
	}{
		{"default", DefaultOptions(), n},
		{"isum-s", ISUMSOptions(), n},
		{"notable", NoTableOptions(), n},
		{"cons", cons, n},
		{"allpairs", allPairs, 150},
		{"weight-subtract", withUpdate(DefaultOptions(), UpdateWeightSubtract), n},
	}
	for _, gen := range []string{"tpch", "tpcds", "dsb", "realm", "scalem"} {
		full := generatorWorkload(t, gen, n)
		for _, v := range variants {
			w := &workload.Workload{Catalog: full.Catalog, Queries: full.Queries[:v.n]}
			want := New(v.opts).Compress(w, k)
			for _, c := range []float64{2, 0x1p-3, 0x1p10} {
				t.Run(fmt.Sprintf("%s/%s/c=%g", gen, v.name, c), func(t *testing.T) {
					got := New(v.opts).Compress(scaleCosts(w, c), k)
					if !slices.Equal(got.Indices, want.Indices) {
						t.Fatalf("indices %v, unscaled %v", got.Indices, want.Indices)
					}
					for i := range want.Indices {
						if math.Float64bits(got.Weights[i]) != math.Float64bits(want.Weights[i]) {
							t.Fatalf("weight %d: %v, unscaled %v", i, got.Weights[i], want.Weights[i])
						}
						if math.Float64bits(got.SelectionBenefits[i]) != math.Float64bits(want.SelectionBenefits[i]) {
							t.Fatalf("benefit %d: %v, unscaled %v", i, got.SelectionBenefits[i], want.SelectionBenefits[i])
						}
					}
				})
			}
		}
	}
}

// scaleCosts returns a copy of w with every query's cost multiplied by c.
func scaleCosts(w *workload.Workload, c float64) *workload.Workload {
	out := &workload.Workload{Catalog: w.Catalog}
	for _, q := range w.Queries {
		cp := *q
		cp.Cost *= c
		out.Queries = append(out.Queries, &cp)
	}
	return out
}
