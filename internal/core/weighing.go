package core

import "isum/internal/features"

// weigh assigns weights to the selected queries per the configured strategy
// (Section 7) and returns them parallel to res.Indices. idx is the
// compression's posting index over states.
func (c *Compressor) weigh(states []*QueryState, idx *postings, res *Result) []float64 {
	k := len(res.Indices)
	if k == 0 {
		return nil
	}
	switch c.opts.Weighing {
	case WeighNone:
		out := make([]float64, k)
		for i := range out {
			out[i] = 1.0 / float64(k)
		}
		return out
	case WeighSelectionBenefit:
		return normalizeWeights(res.SelectionBenefits)
	default:
		return recalibrate(states, idx, res, c.opts.Weighing == WeighTemplateRecalibrated)
	}
}

// uState is one W_u query's working copy in recalibrate. vec aliases the
// state's OrigVec until the query is first touched by an update, which
// clones it: an untouched vector is only read.
type uState struct {
	vec   features.SparseVec
	util  float64
	owned bool
}

// recalibrate implements Algorithm 5 (with Algorithm 4's template-based
// utility pooling when useTemplates is set): the selected queries' benefits
// are recomputed greedily against summary features built from the
// *unselected* remainder only, so selection-order bias disappears.
//
// After each pick only the W_u queries idx lists under the pick's IDs
// are updated; the rest share no ID with it, and their update is a
// bitwise no-op (DESIGN.md §20).
func recalibrate(states []*QueryState, idx *postings, res *Result, useTemplates bool) []float64 {
	k := len(res.Indices)
	// wuPos maps a state position to its W_u position, or -1 for the
	// selected queries and those template pooling excludes from W_u.
	wuPos := make([]int32, len(states))
	for _, i := range res.Indices {
		wuPos[i] = -1
	}

	// Recalibrated utility of each selected query, parallel to res.Indices.
	utility := make([]float64, k)
	if useTemplates {
		// Algorithm 4: pool utilities per template.
		freq := map[string]int{}
		for _, i := range res.Indices {
			freq[states[i].Query.TemplateID]++
		}
		totalU := map[string]float64{}
		for i, s := range states {
			tid := s.Query.TemplateID
			if freq[tid] > 0 {
				totalU[tid] += s.OrigUtility
				wuPos[i] = -1 // same template: represented already
			}
		}
		for p, i := range res.Indices {
			tid := states[i].Query.TemplateID
			utility[p] = totalU[tid] / float64(freq[tid])
		}
	} else {
		for p, i := range res.Indices {
			utility[p] = states[i].OrigUtility
		}
	}

	// W_u, the unselected remainder, in state order. Until numbered here,
	// wuPos is 0 exactly for W_u's members.
	m := 0
	for _, p := range wuPos {
		if p == 0 {
			m++
		}
	}
	wu := make([]uState, 0, m)
	for i, s := range states {
		if wuPos[i] < 0 {
			continue
		}
		wuPos[i] = int32(len(wu))
		wu = append(wu, uState{vec: s.OrigVec, util: s.OrigUtility})
	}
	inWu := func(i int32) bool { return wuPos[i] >= 0 }

	// remaining holds positions into res.Indices, in selection order.
	remaining := make([]int, k)
	for p := range remaining {
		remaining[p] = p
	}
	benefit := make([]float64, k)
	total := 0.0
	acc := features.NewDenseVec(featureSpace(states))
	for len(remaining) > 0 {
		// Summary features over the current W_u, rebuilt in reused storage.
		acc.Reset()
		for i := range wu {
			acc.AddScaled(wu[i].vec, wu[i].util)
		}
		summary := acc.Snapshot()
		bestPos, bestB := -1, -1.0
		for pos, p := range remaining {
			b := utility[p] + states[res.Indices[p]].OrigVec.WeightedJaccard(summary)
			if b > bestB+1e-9 { // epsilon tie-break, see selectGreedy
				bestB, bestPos = b, pos
			}
		}
		p := remaining[bestPos]
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)
		benefit[p] = bestB
		total += bestB
		// Update W_u with the chosen query: discount utilities and remove
		// covered features, as during selection.
		chosenVec := states[res.Indices[p]].OrigVec
		for _, i := range idx.touched(chosenVec, inWu) {
			u := &wu[wuPos[i]]
			sim := chosenVec.WeightedJaccard(u.vec)
			u.util -= u.util * sim
			if !u.owned {
				u.vec, u.owned = u.vec.Clone(), true
			}
			u.vec.ZeroShared(chosenVec)
		}
	}

	out := make([]float64, k)
	for p := range out {
		if total > 0 {
			out[p] = benefit[p] / total
		} else {
			out[p] = 1.0 / float64(k)
		}
	}
	return out
}

// normalizeWeights scales weights to sum to 1, defaulting to uniform when
// the input is degenerate.
func normalizeWeights(in []float64) []float64 {
	out := make([]float64, len(in))
	var total float64
	for _, v := range in {
		if v > 0 {
			total += v
		}
	}
	if total <= 0 {
		for i := range out {
			out[i] = 1.0 / float64(len(in))
		}
		return out
	}
	for i, v := range in {
		if v < 0 {
			v = 0
		}
		out[i] = v / total
	}
	return out
}
