package features

import (
	"math"
	"math/bits"
)

// DenseVec is an ID-indexed accumulator over an interner's feature space:
// one weight slot and one presence bit per interned ID. It holds the
// workload summary V (Definition 11), which the greedy loop folds every
// update delta into and every recalibration round rebuilds. Folding in a
// vector costs O(|vector|) slot updates instead of a merge over all of V.
//
// Each slot replays SparseVec merge arithmetic exactly: a new slot stores
// w·f, an existing one v + w·f, and a slot once present stays present —
// explicit zeros and cancellation residues included. Snapshot therefore
// returns, bit for bit, the ascending-ID vector the same sequence of
// union merges would have built, and the merge-join kernels
// (SummarySimilarity, WeightedJaccard) read it unchanged (DESIGN.md §18).
//
// The zero value is an empty accumulator; NewDenseVec presizes it.
// Mutation and Snapshot are not safe for concurrent use. Once a Snapshot
// has been taken after the last mutation, Snapshot and BenefitBound are
// read-only and safe to call from any number of goroutines.
type DenseVec struct {
	ws      []float64 // one slot per ID; meaningful only where present
	present []uint64  // presence bitset over IDs
	stale   bool      // mutated since the last Snapshot

	// The last Snapshot, in storage reused across snapshots, with the
	// aggregates BenefitBound reads: Σw and Σ|w| in ascending-ID order.
	snap     SparseVec
	sum, abs float64
}

// NewDenseVec returns an empty accumulator sized for IDs [0, n); pass the
// interner's Len. Larger IDs grow it on first use.
func NewDenseVec(n int) *DenseVec {
	d := &DenseVec{}
	d.grow(n)
	return d
}

// grow extends the slot and presence arrays to cover IDs [0, n).
func (d *DenseVec) grow(n int) {
	if n <= len(d.ws) {
		return
	}
	ws := make([]float64, n)
	copy(ws, d.ws)
	present := make([]uint64, (n+63)/64)
	copy(present, d.present)
	d.ws, d.present = ws, present
}

// Reset empties the accumulator, keeping its storage.
func (d *DenseVec) Reset() {
	clear(d.present)
	d.stale = true
}

// AddScaled adds f times v into d: per entry of v, a new slot stores w·f
// and an existing slot becomes v + w·f — the expressions of a union merge,
// in the same per-slot order, so a sequence of AddScaled calls leaves
// every slot bit-identical to the merged SparseVec. O(|v|).
//
//lint:hotpath
func (d *DenseVec) AddScaled(v SparseVec, f float64) {
	n := len(v.ids)
	if n == 0 {
		return
	}
	if last := int(v.ids[n-1]); last >= len(d.ws) {
		d.grow(last + 1)
	}
	for i, id := range v.ids {
		word, bit := id>>6, uint64(1)<<(id&63)
		if d.present[word]&bit != 0 {
			d.ws[id] = d.ws[id] + v.ws[i]*f
		} else {
			d.present[word] |= bit
			d.ws[id] = v.ws[i] * f
		}
	}
	d.stale = true
}

// Snapshot returns the present slots as an ascending-ID SparseVec and
// records their sum and absolute sum for BenefitBound. The result aliases
// storage the next Snapshot after a mutation overwrites; callers must not
// mutate it. Without an intervening mutation Snapshot returns the cached
// view at no cost.
//
//lint:hotpath
func (d *DenseVec) Snapshot() SparseVec {
	if !d.stale {
		return d.snap
	}
	ids, ws := d.snap.ids[:0], d.snap.ws[:0]
	var sum, abs float64
	for wi, word := range d.present {
		for word != 0 {
			id := uint32(wi<<6 | bits.TrailingZeros64(word))
			word &= word - 1
			x := d.ws[id]
			ids = append(ids, id)
			ws = append(ws, x)
			sum += x
			abs += math.Abs(x)
		}
	}
	d.snap = SparseVec{ids: ids, ws: ws}
	d.sum, d.abs = sum, abs
	d.stale = false
	return d.snap
}

// unitRoundoff is u = 2⁻⁵³, the relative rounding error of one float64
// operation.
const unitRoundoff = 0x1p-53

// BenefitBound returns an upper bound on
//
//	qUtil + SummarySimilarity(q, d.Snapshot(), qUtil, totalUtil)
//
// in O(|q|): the exact kernel's fp result is never larger, and the bound
// is never NaN. The kernel's minSum only has terms at q's IDs, so it is
// recomputed here with the same expressions in the same order — bitwise
// the exact value. Its maxSum also has a term v·scale for every entry of
// V outside q; in exact arithmetic those sum to (ΣV − Σ_{V∩q} v)·scale,
// and ΣV comes from the last Snapshot. Summation order makes the kernel's
// fp maxSum differ from that; the slack 8·γ_N·(Σ|q-terms| + scale·Σ|V|)
// with γ_N = N·u/(1−N·u), N = |q| + |V| + 4, covers the kernel's and this
// function's rounding errors with a factor of two to spare (derivation in
// DESIGN.md §18), and N·2⁻¹⁰⁷⁴ covers products that underflow. With
// minSum exact and maxSum ≥ lower > 0, monotone rounding gives
// fl(minSum/maxSum) ≤ fl(minSum/lower), hence the bound.
//
// A stale d (mutated since its last Snapshot), or a maxSum that cannot be
// shown positive, yields +Inf: no pruning, never a wrong one.
//
//lint:hotpath
func (d *DenseVec) BenefitBound(q SparseVec, qUtil, totalUtil float64) float64 {
	if len(q.ids) == 0 {
		return qUtil
	}
	reduced := totalUtil - qUtil
	if reduced <= 0 {
		return qUtil
	}
	if d.stale {
		return math.Inf(1)
	}
	scale := totalUtil / reduced
	var minSum, qMax, qAbs, shared float64
	for i, id := range q.ids {
		aw := q.ws[i]
		survives := false
		var vp float64
		if int(id) < len(d.ws) && d.present[id>>6]&(uint64(1)<<(id&63)) != 0 {
			vw := d.ws[id]
			shared += vw
			if nw := vw - aw*qUtil; nw > 0 {
				vp = nw * scale
				survives = true
			}
		}
		var t float64
		if survives {
			minSum += math.Min(aw, vp)
			t = math.Max(aw, vp)
		} else {
			minSum += math.Min(aw, 0)
			t = math.Max(aw, 0)
		}
		qMax += t
		qAbs += math.Abs(t)
	}
	n := float64(len(q.ids) + len(d.snap.ids) + 4)
	gamma := n * unitRoundoff / (1 - n*unitRoundoff)
	slack := 8*gamma*(qAbs+d.abs*scale) + n*math.SmallestNonzeroFloat64
	lower := qMax + (d.sum-shared)*scale - slack
	if !(lower > 0) || math.IsInf(lower, 1) {
		return math.Inf(1)
	}
	if !(minSum > 0) {
		return qUtil
	}
	return qUtil + minSum/lower
}
