package features

import (
	"math"
	"sort"

	"isum/internal/workload"
)

// This file is the map-based reference oracle for extraction and for the
// SparseVec kernels. The kernels' references accumulate in ascending
// interned-ID order — the same canonical order the merge-join kernels use
// — so oracle and production agree bit-for-bit, not just within
// tolerance. refFeatures is extraction as it was before Features emitted
// key-sorted pairs: a map assembled in iteration order and normalised in
// place.

// mapVec is a feature vector keyed by "table.column". Absent keys are
// zero.
type mapVec map[string]float64

func (v mapVec) Clone() mapVec {
	out := make(mapVec, len(v))
	for k, w := range v {
		out[k] = w
	}
	return out
}

func (v mapVec) AllZero() bool {
	for _, w := range v {
		if w > 0 {
			return false
		}
	}
	return true
}

// Scale multiplies every weight by f in place and returns v.
func (v mapVec) Scale(f float64) mapVec {
	for k, w := range v {
		v[k] = w * f
	}
	return v
}

// AddScaled adds f·other into v in place and returns v.
func (v mapVec) AddScaled(other mapVec, f float64) mapVec {
	for k, w := range other {
		v[k] += w * f
	}
	return v
}

// SubClamped subtracts other from v in place, dropping entries that
// reach zero or below, and returns v.
func (v mapVec) SubClamped(other mapVec) mapVec {
	for k, w := range other {
		nw := v[k] - w
		if nw <= 0 {
			delete(v, k)
		} else {
			v[k] = nw
		}
	}
	return v
}

// ZeroShared removes from v every key with positive weight in other.
func (v mapVec) ZeroShared(other mapVec) mapVec {
	for k, w := range other {
		if w > 0 {
			delete(v, k)
		}
	}
	return v
}

// pairs returns v's entries ascending by key, the form Features returns.
func (v mapVec) pairs() []Feature {
	fs := make([]Feature, 0, len(v))
	for k, w := range v {
		fs = append(fs, Feature{Key: k, W: w})
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].Key < fs[j].Key })
	return fs
}

// asMap collects key-sorted pairs into a map vector.
func asMap(fs []Feature) mapVec {
	v := make(mapVec, len(fs))
	for _, f := range fs {
		v[f.Key] = f.W
	}
	return v
}

// internMaps builds one dictionary over the vectors' keys.
func internMaps(vs ...mapVec) *Interner {
	batch := make([][]Feature, len(vs))
	for i, v := range vs {
		batch[i] = v.pairs()
	}
	return NewInterner(batch)
}

// sparse converts a map vector whose keys are all interned.
func sparse(in *Interner, v mapVec) SparseVec { return in.FromFeatures(v.pairs()) }

// toMap expands a SparseVec back to map form under the interner that
// issued its IDs.
func toMap(v SparseVec, in *Interner) mapVec {
	m := make(mapVec, v.Len())
	v.Each(func(id uint32, w float64) { m[in.Key(id)] = w })
	return m
}

// refWeightedJaccard is WeightedJaccard over map vectors with
// ascending-ID accumulation. Entry-for-entry it matches
// SparseVec.WeightedJaccard: keys only in a contribute min(aw,0) and
// max(aw,0), keys only in b contribute bw to the max sum, and either
// operand being empty yields 0.
func refWeightedJaccard(a, b mapVec, in *Interner) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var minSum, maxSum float64
	for id := 0; id < in.Len(); id++ {
		k := in.Key(uint32(id))
		aw, aok := a[k]
		bw, bok := b[k]
		switch {
		case aok && bok:
			minSum += math.Min(aw, bw)
			maxSum += math.Max(aw, bw)
		case aok:
			minSum += math.Min(aw, 0)
			maxSum += math.Max(aw, 0)
		case bok:
			maxSum += bw
		}
	}
	if maxSum == 0 {
		return 0
	}
	return minSum / maxSum
}

// refJaccard is the unweighted Jaccard similarity of the key sets.
func refJaccard(a, b mapVec) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	for k := range a {
		if _, ok := b[k]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// refSummarySimilarity is the staged map computation of S(q, V′): V′ is
// v with q's utility-scaled contribution subtracted (clamped at zero) and
// the remainder rescaled by totalUtil/(totalUtil−qUtil), and the final
// similarity sums in ascending-ID order. It matches the fused
// SummarySimilarity bit-for-bit.
func refSummarySimilarity(q, v mapVec, qUtil, totalUtil float64, in *Interner) float64 {
	out := v.Clone()
	out.SubClamped(q.Clone().Scale(qUtil))
	reduced := totalUtil - qUtil
	if reduced <= 0 {
		return 0
	}
	out.Scale(totalUtil / reduced)
	return refWeightedJaccard(q, out, in)
}

// refSum sums a map vector in ascending-ID order, matching SparseVec.Sum.
func refSum(v mapVec, in *Interner) float64 {
	var s float64
	for id := 0; id < in.Len(); id++ {
		if w, ok := v[in.Key(uint32(id))]; ok {
			s += w
		}
	}
	return s
}

// refFeatures is Features as a map: weights assembled in map order and
// normalised in place by refNormalize.
func refFeatures(e *Extractor, q *workload.Query) mapVec {
	if q.Info == nil {
		return mapVec{}
	}
	roles := e.collectRoles(q.Info)
	if len(roles) == 0 {
		return mapVec{}
	}
	counts := map[string]*positionCounts{}
	for _, r := range roles {
		pc := counts[r.cu.Table]
		if pc == nil {
			pc = &positionCounts{}
			counts[r.cu.Table] = pc
		}
		if r.positions[PosFilter] {
			pc.S++
		}
		if r.positions[PosJoin] {
			pc.J++
		}
		if r.positions[PosGroupBy] {
			pc.G++
		}
		if r.positions[PosOrderBy] {
			pc.O++
		}
	}
	v := make(mapVec, len(roles))
	for key, r := range roles {
		var w float64
		switch e.Mode {
		case StatsBased:
			w = e.statsWeight(r)
		default:
			w = e.ruleWeight(r, counts[r.cu.Table])
		}
		if e.UseTableWeight {
			w *= e.Cat.TableWeight(r.cu.Table)
		}
		if w > 0 {
			v[key] = w
		}
	}
	return refNormalize(e.Norm, v)
}

func refNormalize(norm NormMode, v mapVec) mapVec {
	if len(v) == 0 || norm == NormNone {
		return v
	}
	var minW, maxW float64
	first := true
	for _, w := range v {
		if first {
			minW, maxW = w, w
			first = false
			continue
		}
		if w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
	}
	if maxW <= 0 {
		return v
	}
	denom := maxW
	if norm == NormMinMaxPaper && maxW > minW {
		denom = maxW - minW
	}
	for k, w := range v {
		v[k] = w / denom
	}
	return v
}
