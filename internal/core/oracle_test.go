package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"isum/internal/benchmarks"
	"isum/internal/cost"
	"isum/internal/features"
	"isum/internal/workload"
)

// This file retains the pre-SparseVec map implementation of the whole
// compression pipeline as a reference oracle and pins the production
// pipeline to it byte-for-byte: same selected indices, bitwise-equal
// weights and selection benefits, on all four workload generators, at
// parallelism 1 and >1. Similarities are computed with the ref* kernels
// below, which accumulate in ascending key order — the order of the
// production dictionary's IDs, which are key ranks; everything else is
// the literal map code the production path used before interning.

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

// pairs returns v's entries ascending by key, the form
// Extractor.Features returns.
func (v mapVec) pairs() []features.Feature {
	fs := make([]features.Feature, 0, len(v))
	for k, w := range v {
		fs = append(fs, features.Feature{Key: k, W: w})
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].Key < fs[j].Key })
	return fs
}

// sortedKeys returns the union of the vectors' keys, ascending: the
// oracle's dictionary, in the order production numbers it.
func sortedKeys(vs []mapVec) []string {
	seen := map[string]bool{}
	var keys []string
	for _, v := range vs {
		for k := range v {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// refWeightedJaccard is WeightedJaccard over map vectors, accumulated in
// ascending key order. Entry-for-entry it matches
// SparseVec.WeightedJaccard: keys only in a contribute min(aw,0) and
// max(aw,0), keys only in b contribute bw to the max sum, and either
// operand being empty yields 0.
func refWeightedJaccard(a, b mapVec, keys []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var minSum, maxSum float64
	for _, k := range keys {
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

// refSummarySimilarity is the staged map computation of S(q, V′): V′ is
// v with q's utility-scaled contribution subtracted (clamped at zero) and
// the remainder rescaled, then compared with refWeightedJaccard.
func refSummarySimilarity(q, v mapVec, qUtil, totalUtil float64, keys []string) float64 {
	out := v.Clone()
	out.SubClamped(q.Clone().Scale(qUtil))
	reduced := totalUtil - qUtil
	if reduced <= 0 {
		return 0
	}
	out.Scale(totalUtil / reduced)
	return refWeightedJaccard(q, out, keys)
}

// oracleState mirrors QueryState with map-shaped vectors.
type oracleState struct {
	idx      int
	q        *workload.Query
	vec      mapVec
	orig     mapVec
	util     float64
	origUtil float64
	selected bool
}

type oracleSummary struct {
	v     mapVec
	total float64
}

type oracleDelta struct {
	util float64
	vec  mapVec
}

func oracleBuildStates(w *workload.Workload, opts Options) ([]*oracleState, []string) {
	ex := opts.extractor(w.Catalog)
	states := make([]*oracleState, len(w.Queries))
	deltas := make([]float64, len(w.Queries))
	vecs := make([]mapVec, len(w.Queries))
	for i, q := range w.Queries {
		deltas[i] = delta(q, opts.Utility)
		vecs[i] = mapVec{}
		for _, f := range ex.Features(q) {
			vecs[i][f.Key] = f.W
		}
	}
	// The sorted union of the keys: production numbers its dictionary in
	// this order, so oracle and production accumulate in the same one.
	keys := sortedKeys(vecs)
	var totalDelta float64
	for _, d := range deltas {
		totalDelta += d
	}
	for i := range w.Queries {
		s := &oracleState{idx: i, q: w.Queries[i], vec: vecs[i].Clone(), orig: vecs[i]}
		if totalDelta > 0 {
			s.util = deltas[i] / totalDelta
		}
		s.origUtil = s.util
		states[i] = s
	}
	return states, keys
}

func oracleApplyUpdate(sel, q *oracleState, strategy UpdateStrategy, keys []string) {
	if strategy == UpdateNone {
		return
	}
	sim := refWeightedJaccard(sel.vec, q.vec, keys)
	q.util -= q.util * sim
	if q.util < 0 {
		q.util = 0
	}
	switch strategy {
	case UpdateWeightSubtract:
		q.vec.SubClamped(sel.vec.Clone().Scale(sim))
	case UpdateFeatureRemove:
		q.vec.ZeroShared(sel.vec)
	}
}

// oracleApplyUpdateWithDelta is the literal pre-SparseVec touched-map
// delta computation.
func oracleApplyUpdateWithDelta(sel, q *oracleState, strategy UpdateStrategy, track bool, keys []string) *oracleDelta {
	if !track {
		oracleApplyUpdate(sel, q, strategy, keys)
		return nil
	}
	if strategy == UpdateNone {
		return nil
	}
	oldUtil := q.util
	touched := make(map[string]float64, len(sel.vec))
	for k := range sel.vec {
		touched[k] = q.vec[k]
	}
	oracleApplyUpdate(sel, q, strategy, keys)
	newUtil := q.util

	d := &oracleDelta{util: newUtil - oldUtil, vec: mapVec{}}
	for k, oldW := range touched {
		if dd := newUtil*q.vec[k] - oldUtil*oldW; dd != 0 {
			d.vec[k] = dd
		}
	}
	if newUtil != oldUtil {
		for k, w := range q.vec {
			if _, ok := touched[k]; ok {
				continue
			}
			if dd := (newUtil - oldUtil) * w; dd != 0 {
				d.vec[k] = dd
			}
		}
	}
	if d.util == 0 && len(d.vec) == 0 {
		return nil
	}
	return d
}

func oracleBuildSummary(states []*oracleState) *oracleSummary {
	ss := &oracleSummary{v: mapVec{}}
	for _, s := range states {
		if s.selected {
			continue
		}
		ss.v.AddScaled(s.vec, s.util)
		ss.total += s.util
	}
	return ss
}

func oracleResetIfAllZero(states []*oracleState) bool {
	for _, s := range states {
		if !s.selected && !s.vec.AllZero() {
			return false
		}
	}
	any := false
	for _, s := range states {
		if !s.selected {
			s.vec = s.orig.Clone()
			any = true
		}
	}
	return any
}

func oracleAllSelected(states []*oracleState) bool {
	for _, s := range states {
		if !s.selected {
			return false
		}
	}
	return true
}

func oracleCompress(w *workload.Workload, k int, opts Options) *Result {
	res := &Result{}
	n := w.Len()
	if n == 0 || k <= 0 {
		return res
	}
	if k > n {
		k = n
	}
	states, keys := oracleBuildStates(w, opts)
	summary := opts.Algorithm != AllPairs
	incremental := summary && !opts.rebuildSummary
	var ss *oracleSummary
	if summary {
		ss = oracleBuildSummary(states)
	}
	for len(res.Indices) < k {
		if summary && opts.rebuildSummary {
			ss = oracleBuildSummary(states)
		}
		benefits := make([]float64, n)
		for i, s := range states {
			if s.selected || s.vec.AllZero() {
				benefits[i] = math.Inf(-1)
				continue
			}
			if opts.Algorithm == AllPairs {
				b := s.util
				for _, qj := range states {
					if qj == s || qj.selected {
						continue
					}
					b += refWeightedJaccard(s.vec, qj.vec, keys) * qj.util
				}
				benefits[i] = b
			} else {
				benefits[i] = s.util + refSummarySimilarity(s.vec, ss.v, s.util, ss.total, keys)
			}
		}
		const benefitEps = 1e-9
		var best *oracleState
		bestBenefit := -1.0
		for i, b := range benefits {
			if b > bestBenefit+benefitEps {
				bestBenefit, best = b, states[i]
			}
		}
		if best == nil {
			if !oracleResetIfAllZero(states) || oracleAllSelected(states) {
				break
			}
			if incremental {
				ss = oracleBuildSummary(states)
			}
			res.Rounds++
			continue
		}
		best.selected = true
		res.Indices = append(res.Indices, best.idx)
		res.SelectionBenefits = append(res.SelectionBenefits, bestBenefit)
		res.Rounds++
		if incremental {
			ss.v.AddScaled(best.vec, -best.util)
			ss.total -= best.util
		}
		for _, s := range states {
			if s.selected {
				continue
			}
			d := oracleApplyUpdateWithDelta(best, s, opts.Update, incremental, keys)
			if incremental && d != nil {
				for dk, dw := range d.vec {
					ss.v[dk] += dw
				}
				ss.total += d.util
			}
		}
	}
	res.Weights = oracleWeigh(states, res, opts, keys)
	return res
}

func oracleWeigh(states []*oracleState, res *Result, opts Options, keys []string) []float64 {
	k := len(res.Indices)
	if k == 0 {
		return nil
	}
	switch opts.Weighing {
	case WeighNone:
		out := make([]float64, k)
		for i := range out {
			out[i] = 1.0 / float64(k)
		}
		return out
	case WeighSelectionBenefit:
		return normalizeWeights(res.SelectionBenefits)
	default:
		return oracleRecalibrate(states, res, opts.Weighing == WeighTemplateRecalibrated, keys)
	}
}

func oracleRecalibrate(states []*oracleState, res *Result, useTemplates bool, keys []string) []float64 {
	selectedSet := map[int]bool{}
	for _, idx := range res.Indices {
		selectedSet[idx] = true
	}
	utility := map[int]float64{}
	excluded := map[int]bool{}
	if useTemplates {
		freq := map[string]int{}
		for _, idx := range res.Indices {
			freq[states[idx].q.TemplateID]++
		}
		totalU := map[string]float64{}
		for _, s := range states {
			tid := s.q.TemplateID
			if freq[tid] > 0 {
				totalU[tid] += s.origUtil
				if !selectedSet[s.idx] {
					excluded[s.idx] = true
				}
			}
		}
		for _, idx := range res.Indices {
			tid := states[idx].q.TemplateID
			utility[idx] = totalU[tid] / float64(freq[tid])
		}
	} else {
		for _, idx := range res.Indices {
			utility[idx] = states[idx].origUtil
		}
	}

	type uState struct {
		vec  mapVec
		util float64
	}
	var wu []*uState
	for _, s := range states {
		if selectedSet[s.idx] || excluded[s.idx] {
			continue
		}
		wu = append(wu, &uState{vec: s.orig.Clone(), util: s.origUtil})
	}

	remaining := append([]int{}, res.Indices...)
	benefit := map[int]float64{}
	total := 0.0
	for len(remaining) > 0 {
		summary := mapVec{}
		for _, u := range wu {
			summary.AddScaled(u.vec, u.util)
		}
		bestPos, bestB := -1, -1.0
		for pos, idx := range remaining {
			b := utility[idx] + refWeightedJaccard(states[idx].orig, summary, keys)
			if b > bestB+1e-9 {
				bestB, bestPos = b, pos
			}
		}
		idx := remaining[bestPos]
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)
		benefit[idx] = bestB
		total += bestB
		chosenVec := states[idx].orig
		for _, u := range wu {
			sim := refWeightedJaccard(chosenVec, u.vec, keys)
			u.util -= u.util * sim
			u.vec.ZeroShared(chosenVec)
		}
	}

	out := make([]float64, len(res.Indices))
	for i, idx := range res.Indices {
		if total > 0 {
			out[i] = benefit[idx] / total
		} else {
			out[i] = 1.0 / float64(len(res.Indices))
		}
	}
	return out
}

// generatorWorkload builds an n-query workload with costs from one of the
// four paper-style generators.
func generatorWorkload(t testing.TB, name string, n int) *workload.Workload {
	t.Helper()
	return seededWorkload(t, name, n, 1)
}

// seededWorkload builds an n-query workload from one of the generators
// with the given instance seed, costs filled.
func seededWorkload(t testing.TB, name string, n int, seed int64) *workload.Workload {
	t.Helper()
	var gen *benchmarks.Generator
	switch name {
	case "tpch":
		gen = benchmarks.TPCH(10)
	case "tpcds":
		gen = benchmarks.TPCDS(10)
	case "dsb":
		gen = benchmarks.DSB(10)
	case "realm":
		gen = benchmarks.RealM(7)
	case "scalem":
		gen = benchmarks.ScaleM(1, benchmarks.ScaleMDefaultTemplates)
	default:
		t.Fatalf("unknown generator %q", name)
	}
	w, err := gen.Workload(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	cost.NewOptimizer(gen.Cat).FillCosts(w)
	return w
}

// TestSparseVecPipelineMatchesMapOracle pins the tentpole's invariant:
// the SparseVec production pipeline and the retained map oracle produce
// byte-identical compression output — indices, weights, selection
// benefits, round counts — on all four generators, at parallelism 1 and
// at parallelism 4.
func TestSparseVecPipelineMatchesMapOracle(t *testing.T) {
	type variant struct {
		name string
		opts Options
	}
	base := []variant{{"default", DefaultOptions()}}
	tpchExtra := []variant{
		{"weight-subtract", withUpdate(DefaultOptions(), UpdateWeightSubtract)},
		{"utility-only", withUpdate(DefaultOptions(), UpdateUtilityOnly)},
		{"isum-s", ISUMSOptions()},
		{"allpairs", func() Options { o := DefaultOptions(); o.Algorithm = AllPairs; return o }()},
		{"rebuild-summary", func() Options { o := DefaultOptions(); o.rebuildSummary = true; return o }()},
		{"weigh-selection", func() Options { o := DefaultOptions(); o.Weighing = WeighSelectionBenefit; return o }()},
	}
	const n, k = 60, 12
	for _, genName := range []string{"tpch", "tpcds", "dsb", "realm"} {
		variants := base
		if genName == "tpch" {
			variants = append(variants, tpchExtra...)
		}
		w := generatorWorkload(t, genName, n)
		for _, v := range variants {
			want := oracleCompress(w, k, v.opts)
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/parallelism=%d", genName, v.name, par), func(t *testing.T) {
					opts := v.opts
					opts.Parallelism = par
					got := New(opts).Compress(w, k)
					if len(got.Indices) != len(want.Indices) {
						t.Fatalf("selected %d queries, oracle %d", len(got.Indices), len(want.Indices))
					}
					for i := range got.Indices {
						if got.Indices[i] != want.Indices[i] {
							t.Fatalf("selection diverged at %d: got %v, oracle %v", i, got.Indices, want.Indices)
						}
						if got.Weights[i] != want.Weights[i] {
							t.Fatalf("weight %d: got %x (%v), oracle %x (%v)", i,
								math.Float64bits(got.Weights[i]), got.Weights[i],
								math.Float64bits(want.Weights[i]), want.Weights[i])
						}
						if got.SelectionBenefits[i] != want.SelectionBenefits[i] {
							t.Fatalf("benefit %d: got %x (%v), oracle %x (%v)", i,
								math.Float64bits(got.SelectionBenefits[i]), got.SelectionBenefits[i],
								math.Float64bits(want.SelectionBenefits[i]), want.SelectionBenefits[i])
						}
					}
					if got.Rounds != want.Rounds {
						t.Fatalf("rounds: got %d, oracle %d", got.Rounds, want.Rounds)
					}
				})
			}
		}
	}
}
