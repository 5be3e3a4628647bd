package compress

import (
	"context"
	"math"
	"math/rand"
	"time"

	"isum/internal/core"
	"isum/internal/faults"
	"isum/internal/features"
	"isum/internal/workload"
)

// KMedoid implements the clustering-based compression of Chaudhuri et al.
// [11], adapted (as in the paper's Section 8 evaluation) to use weighted
// Jaccard over ISUM's query features as the distance, since the original
// distance function is undefined across templates. It seeds k random
// medoids, alternates assignment and medoid refitting until convergence or
// MaxIterations, and returns the medoids weighted by cluster cost share.
type KMedoid struct {
	Seed          int64
	MaxIterations int
}

// Name implements Compressor.
func (m *KMedoid) Name() string { return "k-medoid" }

// CompressContext implements Compressor. The distance features come from
// core.BuildStatesContext, whose error — a query whose cost is NaN, ±Inf
// or negative, or a contained worker panic — it returns. A ctx cancelled
// during that build yields an empty Partial result; the refinement that
// follows runs to completion.
func (m *KMedoid) CompressContext(ctx context.Context, w *workload.Workload, k int) (*core.Result, error) {
	start := time.Now() //lint:allow determinism Result.Elapsed timing only; medoid selection never reads the clock
	n := w.Len()
	k = clampK(k, n)
	if k == 0 {
		return &core.Result{Elapsed: time.Since(start)}, nil
	}
	maxIter := m.MaxIterations
	if maxIter == 0 {
		maxIter = 20
	}
	seed := m.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	states, err := core.BuildStatesContext(ctx, w, core.DefaultOptions())
	if faults.IsCancellation(err) {
		return &core.Result{Partial: true, Elapsed: time.Since(start)}, nil
	}
	if err != nil {
		return nil, err
	}
	vecs := make([]features.SparseVec, n)
	for i, s := range states {
		vecs[i] = s.OrigVec
	}
	dist := func(a, b int) float64 { return 1 - vecs[a].WeightedJaccard(vecs[b]) }

	medoids := rng.Perm(n)[:k]
	assign := make([]int, n)
	for iter := 0; iter < maxIter; iter++ {
		// Assignment.
		for i := 0; i < n; i++ {
			best, bestD := 0, math.Inf(1)
			for ci, med := range medoids {
				if d := dist(i, med); d < bestD {
					bestD, best = d, ci
				}
			}
			assign[i] = best
		}
		// Refit each medoid to the member minimising intra-cluster distance.
		changed := false
		for ci := range medoids {
			var members []int
			for i := 0; i < n; i++ {
				if assign[i] == ci {
					members = append(members, i)
				}
			}
			if len(members) == 0 {
				continue
			}
			bestM, bestSum := medoids[ci], math.Inf(1)
			for _, cand := range members {
				var sum float64
				for _, other := range members {
					sum += dist(cand, other)
				}
				if sum < bestSum {
					bestSum, bestM = sum, cand
				}
			}
			if bestM != medoids[ci] {
				medoids[ci] = bestM
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Weights: each medoid carries its cluster's share of workload cost.
	clusterCost := make([]float64, k)
	var total float64
	for i := 0; i < n; i++ {
		clusterCost[assign[i]] += w.Queries[i].Cost
		total += w.Queries[i].Cost
	}
	res := &core.Result{}
	seen := map[int]bool{}
	for ci, med := range medoids {
		if seen[med] {
			continue // duplicate medoid (possible with duplicate queries)
		}
		seen[med] = true
		res.Indices = append(res.Indices, med)
		wt := 1.0 / float64(k)
		if total > 0 {
			wt = clusterCost[ci] / total
		}
		res.Weights = append(res.Weights, wt)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
