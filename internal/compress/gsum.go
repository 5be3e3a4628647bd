package compress

import (
	"context"
	"math"
	"sort"
	"time"

	"isum/internal/core"
	"isum/internal/workload"
)

// GSUM implements the coverage + representativity greedy of Deep et al.
// [20]: queries are featurised indexing-agnostically (every referenced
// column, unweighted), and the summary S maximises
//
//	α·coverage(S) + (1−α)·representativity(S)
//
// where coverage is the fraction of workload features present in S and
// representativity is one minus the total-variation distance between the
// feature distributions of S and W. As the paper notes (Sections 1, 9),
// GSUM is agnostic both to which columns matter for indexing and to the
// queries' improvement potential — the two gaps ISUM targets.
type GSUM struct {
	// Alpha balances coverage against representativity (default 0.5).
	Alpha float64
}

// Name implements Compressor.
func (g *GSUM) Name() string { return "GSUM" }

// CompressContext implements Compressor. Costs are not read, so the error
// is always nil; a cancelled ctx stops the greedy loop at its next round
// and returns the selections so far with Partial set.
func (g *GSUM) CompressContext(ctx context.Context, w *workload.Workload, k int) (*core.Result, error) {
	start := time.Now() //lint:allow determinism Result.Elapsed timing only; greedy scoring never reads the clock
	n := w.Len()
	k = clampK(k, n)
	alpha := g.Alpha
	if alpha == 0 {
		alpha = 0.5
	}

	// Indexing-agnostic featurisation: every column referenced anywhere.
	feats := make([]map[string]bool, n)
	workloadFreq := map[string]float64{}
	var totalFeats float64
	for i, q := range w.Queries {
		f := map[string]bool{}
		if q.Info != nil {
			for _, c := range q.Info.FilterColumns() {
				f[c.Key()] = true
			}
			for _, c := range q.Info.JoinColumns() {
				f[c.Key()] = true
			}
			for _, c := range q.Info.GroupByColumns() {
				f[c.Key()] = true
			}
			for _, c := range q.Info.OrderByColumns() {
				f[c.Key()] = true
			}
			for _, blk := range q.Info.Blocks {
				for _, c := range blk.Projected {
					f[c.Key()] = true
				}
			}
		}
		feats[i] = f
		for key := range f {
			workloadFreq[key]++
			totalFeats++
		}
	}
	if totalFeats == 0 {
		// Degenerate workload (no analysable columns): fall back to prefix.
		res := &core.Result{}
		for i := 0; i < k; i++ {
			res.Indices = append(res.Indices, i)
		}
		res.Weights = uniformWeights(k)
		res.Elapsed = time.Since(start)
		return res, nil
	}
	for key := range workloadFreq {
		workloadFreq[key] /= totalFeats
	}

	selected := make([]bool, n)
	covered := map[string]bool{}
	sumFreq := map[string]float64{}
	var sumTotal float64
	res := &core.Result{}

	score := func(i int) float64 {
		// Marginal coverage.
		newCov := 0
		for key := range feats[i] {
			if !covered[key] {
				newCov++
			}
		}
		coverage := float64(len(covered)+newCov) / float64(len(workloadFreq))
		// Representativity: 1 − total variation distance between the
		// candidate summary's feature distribution and the workload's.
		total := sumTotal + float64(len(feats[i]))
		if total == 0 {
			return alpha * coverage
		}
		// Accumulate the per-feature deviations canonically: a float sum
		// in map-iteration order would drift by an ulp from run to run
		// (the bug class isumlint's determinism analyzer catches).
		terms := make([]float64, 0, len(workloadFreq))
		for key, wf := range workloadFreq {
			sf := sumFreq[key]
			if feats[i][key] {
				sf++
			}
			terms = append(terms, math.Abs(sf/total-wf))
		}
		tv := detSum(terms)
		rep := 1 - tv/2
		return alpha*coverage + (1-alpha)*rep
	}

	for len(res.Indices) < k {
		if ctx.Err() != nil {
			res.Partial = true
			break
		}
		bestI, bestS := -1, math.Inf(-1)
		for i := 0; i < n; i++ {
			if selected[i] {
				continue
			}
			if s := score(i); s > bestS {
				bestS, bestI = s, i
			}
		}
		if bestI < 0 {
			break
		}
		selected[bestI] = true
		res.Indices = append(res.Indices, bestI)
		for key := range feats[bestI] {
			covered[key] = true
			sumFreq[key]++
			sumTotal++
		}
	}
	sort.Ints(res.Indices)
	res.Weights = uniformWeights(len(res.Indices))
	res.Elapsed = time.Since(start)
	return res, nil
}

// detSum adds vals in ascending value order (mutating vals). Floating-point
// addition is not associative, so summing in Go's randomised map iteration
// order perturbs the last ulp from run to run; sorting by value first makes
// every sum over the same multiset reproduce the same bits.
func detSum(vals []float64) float64 {
	sort.Float64s(vals)
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}
