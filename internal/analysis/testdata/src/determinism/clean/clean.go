// Package clean holds determinism-safe variants of the flagged
// constructs: no findings expected.
package clean

import (
	"math/rand"
	"sort"
)

// Roll draws from an explicitly seeded generator.
func Roll(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(6)
}

// SumWeights collects and sums in canonical order (the detSum pattern).
func SumWeights(m map[string]float64) float64 {
	vals := make([]float64, 0, len(m))
	for _, w := range m {
		vals = append(vals, w)
	}
	return detSum(vals)
}

func detSum(vals []float64) float64 {
	sort.Float64s(vals)
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

// Keys sorts the collected keys before returning them.
func Keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PerKey updates an iteration-local value per key: order-independent.
func PerKey(m map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, vs := range m {
		var local []float64
		local = append(local, vs...)
		sort.Float64s(local)
		out[k] = local[0]
	}
	return out
}

// intVec mimics the SparseVec collect-into-struct idiom: parallel slices
// collected in map order, canonicalised by a sort method on the struct
// they flow into. One aliasing hop (vec := intVec{...}) plus the method
// receiver must count as canonicalisation.
type intVec struct {
	ids []uint32
	ws  []float64
}

func (v *intVec) sortByID() {
	sort.Slice(v.ids, func(i, j int) bool { return v.ids[i] < v.ids[j] })
}

// FromEntries collects map entries into parallel slices and sorts them via
// the struct's method: the merge-join ascending-ID regime.
func FromEntries(m map[uint32]float64) intVec {
	ids := make([]uint32, 0, len(m))
	ws := make([]float64, 0, len(m))
	for id, w := range m {
		ids = append(ids, id)
		ws = append(ws, w)
	}
	vec := intVec{ids: ids, ws: ws}
	vec.sortByID()
	return vec
}

// MergeSum accumulates over already-sorted parallel slices: ascending-ID
// iteration is canonical, no map range involved, never flagged.
func MergeSum(v intVec) float64 {
	var s float64
	for i := 0; i < len(v.ids); i++ {
		s += v.ws[i]
	}
	return s
}
