package compress

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"isum/internal/core"
	"isum/internal/workload"
)

// Uniform samples k queries uniformly at random without replacement.
type Uniform struct {
	// Seed makes runs reproducible; 0 means a fixed default seed.
	Seed int64
}

// Name implements Compressor.
func (u *Uniform) Name() string { return "Uniform" }

// CompressContext implements Compressor. The sample is one permutation,
// so ctx is not consulted and the error is always nil.
func (u *Uniform) CompressContext(_ context.Context, w *workload.Workload, k int) (*core.Result, error) {
	start := time.Now() //lint:allow determinism Result.Elapsed timing only; selection never reads the clock
	n := w.Len()
	k = clampK(k, n)
	rng := rand.New(rand.NewSource(u.seed()))
	perm := rng.Perm(n)
	res := &core.Result{Indices: perm[:k], Weights: uniformWeights(k)}
	sort.Ints(res.Indices)
	res.Elapsed = time.Since(start)
	return res, nil
}

func (u *Uniform) seed() int64 {
	if u.Seed == 0 {
		return 1
	}
	return u.Seed
}

// CostTopK selects the k queries with the highest optimizer-estimated
// costs, weighted by cost share.
type CostTopK struct{}

// Name implements Compressor.
func (c *CostTopK) Name() string { return "Cost" }

// CompressContext implements Compressor. A query whose cost is NaN, ±Inf
// or negative is an error naming the lowest such position; otherwise the
// selection is one sort, so ctx is not consulted.
func (c *CostTopK) CompressContext(_ context.Context, w *workload.Workload, k int) (*core.Result, error) {
	start := time.Now() //lint:allow determinism Result.Elapsed timing only; selection never reads the clock
	for i, q := range w.Queries {
		if !workload.ValidCost(q.Cost) {
			return nil, fmt.Errorf("compress: query %d: invalid cost %v (must be finite and >= 0)", i, q.Cost)
		}
	}
	n := w.Len()
	k = clampK(k, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return w.Queries[idx[a]].Cost > w.Queries[idx[b]].Cost
	})
	sel := idx[:k]
	var total float64
	for _, i := range sel {
		total += w.Queries[i].Cost
	}
	weights := make([]float64, k)
	for j, i := range sel {
		if total > 0 {
			weights[j] = w.Queries[i].Cost / total
		} else {
			weights[j] = 1.0 / float64(k)
		}
	}
	return &core.Result{Indices: sel, Weights: weights, Elapsed: time.Since(start)}, nil
}

// Stratified clusters queries by template and samples round-robin from each
// cluster, weighting picks by their cluster's share of the workload.
type Stratified struct {
	Seed int64
}

// Name implements Compressor.
func (s *Stratified) Name() string { return "Stratified" }

// CompressContext implements Compressor. The sample is one pass over the
// templates, so ctx is not consulted and the error is always nil.
func (s *Stratified) CompressContext(_ context.Context, w *workload.Workload, k int) (*core.Result, error) {
	start := time.Now() //lint:allow determinism Result.Elapsed timing only; selection never reads the clock
	n := w.Len()
	k = clampK(k, n)
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	// Group by template, deterministic cluster order (largest first, then
	// lexicographic).
	byTemplate := map[string][]int{}
	for i, q := range w.Queries {
		byTemplate[q.TemplateID] = append(byTemplate[q.TemplateID], i)
	}
	type cluster struct {
		tid     string
		members []int
	}
	clusters := make([]cluster, 0, len(byTemplate))
	for tid, members := range byTemplate {
		clusters = append(clusters, cluster{tid, members})
	}
	sort.Slice(clusters, func(i, j int) bool {
		if len(clusters[i].members) != len(clusters[j].members) {
			return len(clusters[i].members) > len(clusters[j].members)
		}
		return clusters[i].tid < clusters[j].tid
	})
	// Shuffle within each cluster so the per-cluster sample is uniform.
	for _, c := range clusters {
		rng.Shuffle(len(c.members), func(a, b int) {
			c.members[a], c.members[b] = c.members[b], c.members[a]
		})
	}

	res := &core.Result{}
	var weights []float64
	taken := make([]int, len(clusters))
	for len(res.Indices) < k {
		progressed := false
		for ci := range clusters {
			if len(res.Indices) >= k {
				break
			}
			if taken[ci] < len(clusters[ci].members) {
				pick := clusters[ci].members[taken[ci]]
				taken[ci]++
				res.Indices = append(res.Indices, pick)
				weights = append(weights, float64(len(clusters[ci].members)))
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	var total float64
	for _, wt := range weights {
		total += wt
	}
	for i := range weights {
		weights[i] /= total
	}
	res.Weights = weights
	res.Elapsed = time.Since(start)
	return res, nil
}
