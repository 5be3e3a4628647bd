package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
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

// fuzzBaseN is the size of FuzzCompressMetamorphic's base workloads.
const fuzzBaseN = 400

// fuzzBases caches each generator's cost-filled base workload per
// instance seed, so FuzzCompressMetamorphic builds it once per process
// and each exec only compresses a prefix of it.
var fuzzBases = struct {
	sync.Mutex
	m map[string]*workload.Workload
}{m: map[string]*workload.Workload{}}

func fuzzBase(t *testing.T, gen string, seed int64) *workload.Workload {
	fuzzBases.Lock()
	defer fuzzBases.Unlock()
	key := fmt.Sprintf("%s/%d", gen, seed)
	w, ok := fuzzBases.m[key]
	if !ok {
		w = seededWorkload(t, gen, fuzzBaseN, seed)
		fuzzBases.m[key] = w
	}
	return w
}

// FuzzCompressMetamorphic is the fuzz half of
// TestCompressCostScalingInvariant. It draws a generator, an instance
// seed, a prefix of n ∈ [20, 400] queries, k ∈ [1, 40], an exponent
// e ∈ [−10, 10] and an option set, multiplies every cost by 2^e, and
// requires equal indices and rounds and bit-equal weights and selection
// benefits. When k exceeds the prefix's distinct templates, feature
// resets run, so the posting index's superset invariant is exercised
// too.
func FuzzCompressMetamorphic(f *testing.F) {
	gens := []string{"tpch", "tpcds", "dsb", "realm", "scalem"}
	seeds := []int64{1, 2, 3, 104729}
	cons := DefaultOptions()
	cons.ConsTemplates = true
	variants := []Options{
		DefaultOptions(),
		ISUMSOptions(),
		NoTableOptions(),
		cons,
		withUpdate(DefaultOptions(), UpdateWeightSubtract),
	}
	f.Add(uint8(0), uint8(0), uint16(100), uint8(10), int8(3), uint8(0))
	f.Add(uint8(4), uint8(3), uint16(380), uint8(40), int8(-10), uint8(3))
	f.Add(uint8(2), uint8(1), uint16(0), uint8(39), int8(10), uint8(4))
	f.Fuzz(func(t *testing.T, gen, seed uint8, n uint16, k uint8, e int8, variant uint8) {
		base := fuzzBase(t, gens[int(gen)%len(gens)], seeds[int(seed)%len(seeds)])
		w := &workload.Workload{Catalog: base.Catalog, Queries: base.Queries[:20+int(n)%(fuzzBaseN-19)]}
		kk := 1 + int(k)%40
		opts := variants[int(variant)%len(variants)]
		want := New(opts).Compress(w, kk)
		sameResult(t, New(opts).Compress(scaleCosts(w, math.Ldexp(1, int(e)%11)), kk), want)
	})
}
