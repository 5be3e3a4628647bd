package core

import "isum/internal/features"

// Influence returns F_qi(qj) = S(qi, qj) · U(qj), the reduction in qj's
// utility when qi is selected for tuning (Definition 3).
//
//lint:hotpath
func Influence(qi, qj *QueryState) float64 {
	if qi == qj {
		return 0
	}
	return qi.Similarity(qj) * qj.Utility
}

// BenefitAllPairs returns the conditional benefit of qi against the current
// states (Definition 10, computed as in Algorithm 1): its discounted
// utility plus its influence over every unselected query.
//
//lint:hotpath
func BenefitAllPairs(qi *QueryState, states []*QueryState) float64 {
	b := qi.Utility
	for _, qj := range states {
		if qj == qi || qj.Selected {
			continue
		}
		b += Influence(qi, qj)
	}
	return b
}

// SummaryState carries the workload-level summary features V and the
// total utility over the unselected queries, for the linear-time benefit.
// V is held ID-indexed (features.DenseVec), so folding one query's
// contribution in costs O(|q|) instead of a merge over all of V, with
// results bit-identical to the merge (DESIGN.md §18).
//
// BuildSummary returns a state that is safe for concurrent reads. After a
// mutation (RemoveSelected, ApplyDelta), V is snapshotted lazily: the
// first V or BenefitSummary rebuilds the ascending-ID view, so it is
// itself a mutation. Read V once serially before sharing the state across
// goroutines again.
type SummaryState struct {
	v            *features.DenseVec
	TotalUtility float64
}

// BuildSummary computes the summary features V (Definition 11) and total
// utility over the unselected queries.
func BuildSummary(states []*QueryState) *SummaryState {
	ss := &SummaryState{v: features.NewDenseVec(featureSpace(states))}
	ss.rebuild(states)
	ss.V() // snapshot now: the returned state is safe for concurrent reads
	return ss
}

// featureSpace returns the size of the states' shared feature dictionary:
// the slot count of a summary accumulator over them.
func featureSpace(states []*QueryState) int {
	if len(states) == 0 || states[0].Interner == nil {
		return 0
	}
	return states[0].Interner.Len()
}

// rebuild recomputes V and the total utility from scratch in the
// existing storage.
func (ss *SummaryState) rebuild(states []*QueryState) {
	ss.v.Reset()
	ss.TotalUtility = 0
	for _, s := range states {
		if s.Selected {
			continue
		}
		ss.v.AddScaled(s.Vec, s.Utility)
		ss.TotalUtility += s.Utility
	}
}

// V returns the summary features in ascending-ID form. The vector aliases
// the state's storage: it is valid until the next mutation and must not
// be modified.
func (ss *SummaryState) V() features.SparseVec { return ss.v.Snapshot() }

// RemoveSelected subtracts a just-selected query's contribution
// (Utility·Vec at selection time) from the summary — the first half of the
// incremental maintenance that replaces the per-round BuildSummary rebuild.
//
//lint:hotpath
func (ss *SummaryState) RemoveSelected(q *QueryState) {
	ss.v.AddScaled(q.Vec, -q.Utility)
	ss.TotalUtility -= q.Utility
}

// ApplyDelta folds one unselected query's contribution delta (produced by
// the post-selection update sweep) into the summary. Deltas must be applied
// in query-index order for bit-identical summaries across runs.
//
//lint:hotpath
func (ss *SummaryState) ApplyDelta(util float64, vec features.SparseVec) {
	ss.v.AddScaled(vec, 1)
	ss.TotalUtility += util
}

// BenefitSummary returns qi's benefit against the summary (Algorithm 3):
// its utility plus S(qi, V′) where V′ excludes qi's own contribution,
// computed by the fused merge-join kernel (no temporary summary copy).
//
//lint:hotpath
func BenefitSummary(qi *QueryState, ss *SummaryState) float64 {
	return qi.Utility + features.SummarySimilarity(qi.Vec, ss.V(), qi.Utility, ss.TotalUtility)
}

// InfluenceOnWorkload returns F_qs(W) = Σ_j S(qs,qj)·U(qj), the all-pairs
// influence of qs over the unselected queries — used to validate the
// summary approximation (Theorem 3 / Fig. 8a).
//
//lint:hotpath
func InfluenceOnWorkload(qs *QueryState, states []*QueryState) float64 {
	var f float64
	for _, qj := range states {
		if qj == qs || qj.Selected {
			continue
		}
		f += Influence(qs, qj)
	}
	return f
}

// InfluenceOnSummary returns F_qs(V) = S(qs, V′), the summary-feature
// estimate of the same quantity.
//
//lint:hotpath
func InfluenceOnSummary(qs *QueryState, ss *SummaryState) float64 {
	return features.SummarySimilarity(qs.Vec, ss.V(), qs.Utility, ss.TotalUtility)
}
