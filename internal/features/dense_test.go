package features

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestDenseVecSnapshot pins the snapshot's shape: ascending IDs, every
// slot ever added present (explicit zeros and exact cancellations
// included), Reset empties it, and an unmutated snapshot is reused.
func TestDenseVecSnapshot(t *testing.T) {
	d := NewDenseVec(4) // smaller than the IDs below: grows on demand
	d.AddScaled(SparseVec{ids: []uint32{3, 70, 130}, ws: []float64{1, 0, 0.5}}, 2)
	d.AddScaled(SparseVec{ids: []uint32{3, 64}, ws: []float64{1, 0.25}}, -2)
	got := d.Snapshot()
	wantIDs := []uint32{3, 64, 70, 130}
	wantWs := []float64{0, -0.5, 0, 1}
	if got.Len() != len(wantIDs) {
		t.Fatalf("snapshot has %d entries, want %d", got.Len(), len(wantIDs))
	}
	for i := range wantIDs {
		if got.ids[i] != wantIDs[i] || got.ws[i] != wantWs[i] {
			t.Fatalf("entry %d = (%d, %v), want (%d, %v)", i, got.ids[i], got.ws[i], wantIDs[i], wantWs[i])
		}
	}
	if d.sum != 0.5 || d.abs != 1.5 {
		t.Fatalf("aggregates Σ=%v Σ|·|=%v, want 0.5 and 1.5", d.sum, d.abs)
	}
	if again := d.Snapshot(); &again.ids[0] != &got.ids[0] {
		t.Fatal("an unmutated snapshot must be reused, not rebuilt")
	}
	d.Reset()
	if d.Snapshot().Len() != 0 {
		t.Fatal("Reset must empty the accumulator")
	}
}

// TestBenefitBoundTight checks the bound is useful as well as sound: on
// realistic vectors it is finite and exceeds the exact benefit only by
// rounding slack, far below the greedy's 1e-9 tie-break tolerance.
func TestBenefitBoundTight(t *testing.T) {
	am, bm, in := synthVecs(24, 20, 10)
	a, b := sparse(in, am), sparse(in, bm)
	d := NewDenseVec(in.Len())
	d.AddScaled(a, 0.4)
	d.AddScaled(b, 0.6)
	snap := d.Snapshot()
	for _, q := range []SparseVec{a, b} {
		for _, qU := range []float64{0, 0.1, 0.4} {
			exact := qU + SummarySimilarity(q, snap, qU, 1)
			bound := d.BenefitBound(q, qU, 1)
			if bound < exact || bound-exact > 1e-12 {
				t.Fatalf("qU=%v: bound %v, exact %v", qU, bound, exact)
			}
		}
	}
	d.AddScaled(a, 0.1)
	if !math.IsInf(d.BenefitBound(a, 0.1, 1), 1) {
		t.Fatal("a stale accumulator must bound by +Inf")
	}
}

// FuzzSummaryBound checks BenefitBound's soundness against the exact
// kernel: for a random q and a dense summary with gaps, explicit zeros
// and ±1e-17 cancellation residues, the bound is never NaN and never
// below qUtil + SummarySimilarity(q, snapshot, qUtil, totalUtil). Seeds
// cover qUtil = 0, totalUtil − qUtil ≤ 0 and an empty q.
func FuzzSummaryBound(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(40), 0.05, 1.0)
	f.Add(int64(2), uint8(5), uint8(30), 0.0, 1.0)
	f.Add(int64(3), uint8(4), uint8(20), 0.7, 0.7)
	f.Add(int64(4), uint8(4), uint8(20), 0.9, 0.3)
	f.Add(int64(5), uint8(0), uint8(25), 0.2, 1.0)
	f.Add(int64(6), uint8(12), uint8(60), 0.999999, 1.0)
	f.Fuzz(func(t *testing.T, seed int64, nq, nv uint8, qUtil, totalUtil float64) {
		qUtil, totalUtil = fuzzClean(qUtil), fuzzClean(totalUtil)
		rng := rand.New(rand.NewSource(seed))
		const space = 96
		// draw draws up to n distinct IDs in [0, space), ascending.
		draw := func(n int, weight func() float64) SparseVec {
			ids := rng.Perm(space)[:n%space]
			slices.Sort(ids)
			var v SparseVec
			for _, id := range ids {
				v.ids = append(v.ids, uint32(id))
				v.ws = append(v.ws, weight())
			}
			return v
		}
		d := NewDenseVec(space)
		// Contributions with explicit zeros and residues, then removals
		// that cancel some slots exactly and leave others near zero.
		d.AddScaled(draw(int(nv), func() float64 {
			switch rng.Intn(8) {
			case 0:
				return 0
			case 1:
				return 1e-17
			case 2:
				return -1e-17
			}
			return rng.Float64() * 2
		}), 1)
		for r := 0; r < 3; r++ {
			d.AddScaled(draw(int(nv)/2, rng.Float64), -rng.Float64())
		}
		q := draw(int(nq%24), func() float64 {
			if rng.Intn(8) == 0 {
				return 0
			}
			return rng.Float64()
		})
		snap := d.Snapshot()
		exact := qUtil + SummarySimilarity(q, snap, qUtil, totalUtil)
		bound := d.BenefitBound(q, qUtil, totalUtil)
		if math.IsNaN(bound) {
			t.Fatalf("bound is NaN (qUtil=%v totalUtil=%v |q|=%d |V|=%d)", qUtil, totalUtil, q.Len(), snap.Len())
		}
		if bound < exact {
			t.Fatalf("bound %v (%x) below exact benefit %v (%x); qUtil=%v totalUtil=%v |q|=%d |V|=%d",
				bound, math.Float64bits(bound), exact, math.Float64bits(exact), qUtil, totalUtil, q.Len(), snap.Len())
		}
	})
}
