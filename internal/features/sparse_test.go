package features

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// synthVecs builds a deterministic pair of map vectors with the given
// entry counts and overlap, plus an interner covering both.
func synthVecs(nA, nB, overlap int) (Vector, Vector, *Interner) {
	a, b := Vector{}, Vector{}
	key := func(i int) string { return fmt.Sprintf("t%02d.c%03d", i%7, i) }
	for i := 0; i < nA; i++ {
		a[key(i)] = 0.1 + float64(i%11)*0.07
	}
	for i := nA - overlap; i < nA-overlap+nB; i++ {
		b[key(i)] = 0.15 + float64(i%13)*0.05
	}
	in := NewInterner()
	in.AddVectors([]Vector{a, b})
	return a, b, in
}

// sameVector fails unless got and want have identical support and
// bitwise-equal weights.
func sameVector(t *testing.T, op string, got, want Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: support %d, want %d\ngot  %v\nwant %v", op, len(got), len(want), got, want)
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || g != w {
			t.Fatalf("%s: [%s] = %x (%v), want %x (%v)", op, k,
				math.Float64bits(g), g, math.Float64bits(w), w)
		}
	}
}

func TestInternerDeterministicIDs(t *testing.T) {
	a, b, in := synthVecs(12, 9, 4)
	in2 := NewInterner()
	in2.AddVectors([]Vector{b, a}) // different order, same batch
	if in.Len() != in2.Len() {
		t.Fatalf("table sizes differ: %d vs %d", in.Len(), in2.Len())
	}
	for id := 0; id < in.Len(); id++ {
		if in.Key(uint32(id)) != in2.Key(uint32(id)) {
			t.Fatalf("ID %d: %q vs %q", id, in.Key(uint32(id)), in2.Key(uint32(id)))
		}
	}
	// Batch IDs are lexicographic.
	for id := 1; id < in.Len(); id++ {
		if in.Key(uint32(id-1)) >= in.Key(uint32(id)) {
			t.Fatalf("IDs not lexicographic at %d: %q >= %q", id, in.Key(uint32(id-1)), in.Key(uint32(id)))
		}
	}
	// A second batch only appends.
	extra := Vector{"zz.z": 1, a.Clone().firstKey(): 1}
	in.AddVectors([]Vector{extra})
	if id, ok := in.ID("zz.z"); !ok || int(id) != in.Len()-1 {
		t.Fatalf("new key got ID %d (ok=%v), want %d", id, ok, in.Len()-1)
	}
}

// firstKey returns the lexicographically smallest key (test helper).
func (v Vector) firstKey() string {
	best := ""
	for k := range v {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

func TestFromMapRoundTrip(t *testing.T) {
	a, b, in := synthVecs(10, 8, 3)
	for _, v := range []Vector{a, b, {}} {
		sv := in.FromMap(v)
		sameVector(t, "round-trip", sv.ToMap(in), v)
		if sv.Len() != len(v) {
			t.Fatalf("Len = %d, want %d", sv.Len(), len(v))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromMap with un-interned key must panic")
		}
	}()
	in.FromMap(Vector{"not.interned": 1})
}

// TestKernelZeroAlloc pins the tentpole's allocation claim: with warmed
// pools, the similarity and fused update kernels allocate nothing.
func TestKernelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race instrumentation")
	}
	am, bm, in := synthVecs(24, 20, 10)
	a, b := in.FromMap(am), in.FromMap(bm)

	check := func(name string, fn func()) {
		t.Helper()
		fn() // warm pools and grow targets to final capacity
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}

	check("WeightedJaccard", func() { _ = a.WeightedJaccard(b) })
	check("Jaccard", func() { _ = a.Jaccard(b) })
	check("SummarySimilarity", func() { _ = SummarySimilarity(a, b, 0.25, 1.0) })
	check("Sum", func() { _ = a.Sum() })

	sub := a.Clone()
	check("SubClampedScaled", func() { sub.SubClampedScaled(b, 0.01) })
	zs := a.Clone()
	check("ZeroShared", func() { zs.ZeroShared(b) })
	dense := NewDenseVec(in.Len())
	dense.AddScaled(a, 1)
	check("DenseVec.AddScaled", func() { dense.AddScaled(b, 0.001) })
	check("DenseVec.Snapshot", func() {
		dense.AddScaled(b, 0.001)
		_ = dense.Snapshot()
	})
	check("DenseVec.BenefitBound", func() { _ = dense.BenefitBound(a, 0.25, 1.0) })

	shared := make([]float64, 0, b.Len())
	check("SharedWeights+UpdateDelta+Release", func() {
		shared = a.SharedWeights(b, shared[:0])
		d := UpdateDelta(a, b, shared, 0.5, 0.25)
		d.Release()
	})
}

// fuzzClean maps arbitrary fuzz floats into a sane non-negative range.
func fuzzClean(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	return math.Mod(math.Abs(x), 4)
}

// FuzzSparseVecOps checks every SparseVec kernel against the map-based
// Vector reference oracle: entry-mutating ops must match the map result
// bitwise; similarity kernels must match the ascending-ID Ref* oracles
// bitwise and the legacy DetSum implementations within tolerance.
func FuzzSparseVecOps(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(5), 0.5, 0.25)
	f.Add(int64(42), uint8(0), uint8(9), 1.5, -0.75)
	f.Add(int64(7), uint8(16), uint8(16), 0.0, 2.5)
	f.Fuzz(func(t *testing.T, seed int64, n1, n2 uint8, f1, f2 float64) {
		rng := rand.New(rand.NewSource(seed))
		build := func(n int) Vector {
			v := Vector{}
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("t%d.c%d", rng.Intn(4), rng.Intn(24))
				w := rng.Float64() * 2
				if rng.Intn(8) == 0 {
					w = 0 // explicit zero entries occur in summaries
				}
				v[k] = w
			}
			return v
		}
		a, b := build(int(n1%20)), build(int(n2%20))
		in := NewInterner()
		in.AddVectors([]Vector{a, b})
		sa, sb := in.FromMap(a), in.FromMap(b)

		sameVector(t, "a round-trip", sa.ToMap(in), a)
		sameVector(t, "b round-trip", sb.ToMap(in), b)

		if got, want := sa.AllZero(), a.AllZero(); got != want {
			t.Fatalf("AllZero: %v, want %v", got, want)
		}
		if got, want := sa.Sum(), RefSum(a, in); got != want {
			t.Fatalf("Sum: %v, want %v", got, want)
		}
		if d := math.Abs(sa.Sum() - a.Sum()); d > 1e-9 {
			t.Fatalf("Sum vs DetSum drift %g", d)
		}

		if got, want := sa.WeightedJaccard(sb), RefWeightedJaccard(a, b, in); got != want {
			t.Fatalf("WeightedJaccard: %x, want %x", math.Float64bits(got), math.Float64bits(want))
		}
		if d := math.Abs(sa.WeightedJaccard(sb) - WeightedJaccard(a, b)); d > 1e-9 {
			t.Fatalf("WeightedJaccard vs legacy drift %g", d)
		}
		if got, want := sa.Jaccard(sb), Jaccard(a, b); got != want {
			t.Fatalf("Jaccard: %v, want %v", got, want)
		}

		qUtil, extra := fuzzClean(f1), fuzzClean(f2)
		totalUtil := qUtil + extra
		if got, want := SummarySimilarity(sa, sb, qUtil, totalUtil), RefSummarySimilarity(a, b, qUtil, totalUtil, in); got != want {
			t.Fatalf("SummarySimilarity: %x, want %x", math.Float64bits(got), math.Float64bits(want))
		}
		if reduced := totalUtil - qUtil; reduced > 0 {
			stagedV := b.Clone()
			stagedV.SubClamped(a.Clone().Scale(qUtil))
			stagedV.Scale(totalUtil / reduced)
			staged := WeightedJaccard(a, stagedV)
			if d := math.Abs(SummarySimilarity(sa, sb, qUtil, totalUtil) - staged); d > 1e-9 {
				t.Fatalf("SummarySimilarity vs staged legacy drift %g", d)
			}
		}

		// Entry-mutating kernels: bitwise map equivalence.
		signed := f1
		if math.IsNaN(signed) || math.IsInf(signed, 0) {
			signed = -0.5
		} else {
			signed = math.Mod(signed, 4)
		}
		// Dense accumulation replays the map's per-key ops: new keys store
		// w·f, existing ones v + w·f, zero results stay present.
		dv, mv := NewDenseVec(in.Len()), Vector{}
		dv.AddScaled(sa, 1)
		mv.AddScaled(a, 1)
		dv.AddScaled(sb, signed)
		mv.AddScaled(b, signed)
		sameVector(t, "DenseVec.AddScaled", dv.Snapshot().ToMap(in), mv)

		fpos := fuzzClean(f2)
		sv2, mv2 := sa.Clone(), a.Clone()
		sv2.SubClampedScaled(sb, fpos)
		mv2.SubClamped(b.Clone().Scale(fpos))
		sameVector(t, "SubClampedScaled", sv2.ToMap(in), mv2)

		sv3, mv3 := sa.Clone(), a.Clone()
		sv3.SubClamped(sb)
		mv3.SubClamped(b)
		sameVector(t, "SubClamped", sv3.ToMap(in), mv3)

		sv4, mv4 := sa.Clone(), a.Clone()
		sv4.ZeroShared(sb)
		mv4.ZeroShared(b)
		sameVector(t, "ZeroShared", sv4.ToMap(in), mv4)

		sv5, mv5 := sa.Clone(), a.Clone()
		sv5.Scale(signed)
		mv5.Scale(signed)
		sameVector(t, "Scale", sv5.ToMap(in), mv5)

		// Fused summary delta vs the touched-map reference: mutate a copy
		// the way an update would, then diff.
		oldU, newU := qUtil, extra
		shared := sa.SharedWeights(sb, nil)
		cur := sa.Clone()
		cur.ZeroShared(sb)
		d := UpdateDelta(cur, sb, shared, oldU, newU)
		want := Vector{}
		curM := cur.ToMap(in)
		for k := range b {
			oldW := a[k] // SharedWeights snapshot semantics: 0 when absent
			if dd := newU*curM[k] - oldU*oldW; dd != 0 {
				want[k] = dd
			}
		}
		if newU != oldU {
			for k, w := range curM {
				if _, ok := b[k]; ok {
					continue
				}
				if dd := (newU - oldU) * w; dd != 0 {
					want[k] = dd
				}
			}
		}
		sameVector(t, "UpdateDelta", d.ToMap(in), want)
		d.Release()

		// Get/Each agree with the map.
		sa.Each(func(id uint32, w float64) {
			if got, ok := sa.Get(id); !ok || got != w {
				t.Fatalf("Get(%d) = %v,%v, want %v", id, got, ok, w)
			}
			if a[in.Key(id)] != w {
				t.Fatalf("Each weight mismatch at %d", id)
			}
		})
	})
}

// BenchmarkJaccard compares the map-based WeightedJaccard (DetSum
// canonicalisation, per-call allocations) with the SparseVec merge-join
// kernel on representative vectors: ~24 features per query, ~50%
// overlap. BENCH_vectors.json is generated from this benchmark.
func BenchmarkJaccard(b *testing.B) {
	am, bm, in := synthVecs(24, 24, 12)
	sa, sb := in.FromMap(am), in.FromMap(bm)

	b.Run("impl=map", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += WeightedJaccard(am, bm)
		}
		benchSink = sink
	})
	b.Run("impl=sparse", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += sa.WeightedJaccard(sb)
		}
		benchSink = sink
	})
}

// benchSink defeats dead-code elimination of the benchmarked kernels.
var benchSink float64
