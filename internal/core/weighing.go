package core

import (
	"isum/internal/features"
	"isum/internal/workload"
)

// weigh assigns weights to the selected queries per the configured strategy
// (Section 7) and returns them parallel to res.Indices.
func (c *Compressor) weigh(w *workload.Workload, states []*QueryState, res *Result) []float64 {
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
		return c.recalibrate(w, states, res, c.opts.Weighing == WeighTemplateRecalibrated)
	}
}

// recalibrate implements Algorithm 5 (with Algorithm 4's template-based
// utility pooling when useTemplates is set): the selected queries' benefits
// are recomputed greedily against summary features built from the
// *unselected* remainder only, so selection-order bias disappears.
func (c *Compressor) recalibrate(w *workload.Workload, states []*QueryState, res *Result, useTemplates bool) []float64 {
	selectedSet := map[int]bool{}
	for _, idx := range res.Indices {
		selectedSet[idx] = true
	}

	// Per-query recalibrated utility for the selected queries, and the set
	// of unselected queries forming W_u.
	utility := map[int]float64{}
	excluded := map[int]bool{} // unselected queries removed from W_u
	if useTemplates {
		// Algorithm 4: pool utilities per template.
		freq := map[string]int{}
		for _, idx := range res.Indices {
			freq[states[idx].Query.TemplateID]++
		}
		totalU := map[string]float64{}
		for _, s := range states {
			tid := s.Query.TemplateID
			if freq[tid] > 0 {
				totalU[tid] += s.OrigUtility
				if !selectedSet[s.Index] {
					excluded[s.Index] = true // same template: represented already
				}
			}
		}
		for _, idx := range res.Indices {
			tid := states[idx].Query.TemplateID
			utility[idx] = totalU[tid] / float64(freq[tid])
		}
	} else {
		for _, idx := range res.Indices {
			utility[idx] = states[idx].OrigUtility
		}
	}

	// Fresh working copies of the unselected remainder (W_u).
	type uState struct {
		vec  features.SparseVec
		util float64
	}
	var wu []*uState
	for _, s := range states {
		if selectedSet[s.Index] || excluded[s.Index] {
			continue
		}
		wu = append(wu, &uState{vec: s.OrigVec.Clone(), util: s.OrigUtility})
	}

	remaining := append([]int{}, res.Indices...)
	benefit := map[int]float64{}
	total := 0.0
	acc := features.NewDenseVec(featureSpace(states))
	for len(remaining) > 0 {
		// Summary features over the current W_u, rebuilt in reused storage.
		acc.Reset()
		for _, u := range wu {
			acc.AddScaled(u.vec, u.util)
		}
		summary := acc.Snapshot()
		bestPos, bestB := -1, -1.0
		for pos, idx := range remaining {
			b := utility[idx] + states[idx].OrigVec.WeightedJaccard(summary)
			if b > bestB+1e-9 { // epsilon tie-break, see selectGreedy
				bestB, bestPos = b, pos
			}
		}
		idx := remaining[bestPos]
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)
		benefit[idx] = bestB
		total += bestB
		// Update W_u with the chosen query: discount utilities and remove
		// covered features, as during selection.
		chosenVec := states[idx].OrigVec
		for _, u := range wu {
			sim := chosenVec.WeightedJaccard(u.vec)
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
