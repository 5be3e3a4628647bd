package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"isum/internal/features"
	"isum/internal/parallel"
	"isum/internal/telemetry"
	"isum/internal/workload"
)

// progressStride is how many per-query units a worker sweep completes
// between progress emissions — coarse enough that emission cost is
// invisible next to feature extraction, fine enough for a live rate.
const progressStride = 1024

// QueryState is the mutable per-query state of a greedy run: the current
// (possibly updated) feature vector and utility, plus the originals for
// resets and weighing.
type QueryState struct {
	// Index is the query's position in the input workload.
	Index int
	// Query is the underlying workload query.
	Query *workload.Query

	// Vec is the current feature vector; mutated by update strategies.
	Vec features.SparseVec
	// Utility is the current (discounted) normalised utility U(q).
	Utility float64

	// OrigVec and OrigUtility are the values before any updates.
	OrigVec     features.SparseVec
	OrigUtility float64

	// Selected marks membership in the compressed workload.
	Selected bool

	// Interner is the feature dictionary shared by every state built in
	// the same BuildStates call; it maps the IDs in Vec/OrigVec back to
	// "table.column" keys.
	Interner *features.Interner
}

// Similarity returns the weighted-Jaccard similarity between two query
// states' current features.
//
//lint:hotpath
func (s *QueryState) Similarity(t *QueryState) float64 {
	return s.Vec.WeightedJaccard(t.Vec)
}

// delta computes Δ(q) under the utility mode.
func delta(q *workload.Query, mode UtilityMode) float64 {
	switch mode {
	case UtilityCostSelectivity:
		sel := 1.0
		if q.Info != nil {
			sel = q.Info.AvgFilterJoinSelectivity()
		}
		return (1 - sel) * q.Cost
	default:
		return q.Cost
	}
}

// BuildStates computes the initial per-query states for a workload:
// feature vectors via the configured extractor and normalised utilities
// U(q) = Δ(q)/ΣΔ (Definition 2). Feature extraction fans out across
// opts.Parallelism workers; ΣΔ is reduced serially in query order, so
// utilities are bit-identical at any parallelism. It panics where
// BuildStatesContext returns an error.
func BuildStates(w *workload.Workload, opts Options) []*QueryState {
	states, err := BuildStatesContext(context.Background(), w, opts)
	if err != nil {
		panic(err)
	}
	return states
}

// BuildStatesContext is BuildStates with cancellation and validation: a
// cancelled ctx aborts the feature-extraction sweep and returns the
// context's error (states built so far are discarded — partially built
// states are not meaningful), a query whose cost is NaN, ±Inf or
// negative is an error naming its position, and a contained worker panic
// surfaces as a *PanicError.
func BuildStatesContext(ctx context.Context, w *workload.Workload, opts Options) ([]*QueryState, error) {
	const phase = "core/build-states"
	sp := opts.Telemetry.Start(phase)
	defer sp.End()
	sp.SetAttr("n", len(w.Queries))
	reps := make([]int, len(w.Queries))
	for i := range reps {
		reps[i] = i
	}
	states, err := buildStates(ctx, w, opts, phase, reps, func(g int) []int { return reps[g : g+1] })
	sp.SetAttr("features", featureSpace(states))
	return states, err
}

// buildStates is the one state builder behind BuildStatesContext and
// BuildConsedStatesContext. It builds state g from the query at workload
// position reps[g] — every query, or each template's first instance —
// and gives it the pooled utility Σ Δ(q_i)/ΣΔ over i ∈ members(g). phase
// names its progress events.
//
// ΣΔ ranges over every query and is reduced serially in query order, so
// utilities are bit-identical at any parallelism; the same loop rejects
// invalid costs, so the lowest bad position is the one reported. Each
// pooled sum starts at +0, so a singleton group's utility is Δ/ΣΔ bit for
// bit (+0 for a −0 cost): utilities are never negative, which the
// posting-list sweeps rely on (DESIGN.md §20).
//
// Extraction runs on the worker pool and yields key-sorted pairs. Their
// keys are interned into one fresh dictionary, serially, and a second
// parallel sweep converts each state's pairs to a SparseVec. Interning
// the sorted union is what makes IDs — and so every downstream
// merge-join — reproducible across runs (DESIGN.md §11).
func buildStates(ctx context.Context, w *workload.Workload, opts Options, phase string, reps []int, members func(g int) []int) ([]*QueryState, error) {
	deltas := make([]float64, len(w.Queries))
	var totalDelta float64
	for i, q := range w.Queries {
		if math.IsNaN(q.Cost) || math.IsInf(q.Cost, 0) || q.Cost < 0 {
			return nil, fmt.Errorf("core: query %d: invalid cost %v (must be finite and >= 0)", i, q.Cost)
		}
		deltas[i] = delta(q, opts.Utility)
		totalDelta += deltas[i]
	}

	ex := opts.extractor(w.Catalog)
	feats := make([][]features.Feature, len(reps))
	workers := parallel.Workers(opts.Parallelism)
	var built atomic.Int64 // progress stride counter; workers emit, so Progress must be concurrency-safe
	err := parallel.ForEach(ctx, workers, len(reps), func(g int) {
		feats[g] = ex.Features(w.Queries[reps[g]])
		if opts.Progress != nil {
			if d := built.Add(1); d%progressStride == 0 {
				opts.Progress(telemetry.ProgressEvent{Phase: phase, Done: int(d), Total: len(reps)})
			}
		}
	})
	if err != nil {
		return nil, err
	}
	opts.Progress.Emit(telemetry.ProgressEvent{Phase: phase, Done: len(reps), Total: len(reps)})

	in := features.NewInterner(feats)
	states := make([]*QueryState, len(reps))
	err = parallel.ForEach(ctx, workers, len(reps), func(g int) {
		sv := in.FromFeatures(feats[g])
		var u float64
		if totalDelta > 0 {
			for _, i := range members(g) {
				u += deltas[i] / totalDelta
			}
		}
		states[g] = &QueryState{
			Index:       g,
			Query:       w.Queries[reps[g]],
			Vec:         sv.Clone(),
			Utility:     u,
			OrigVec:     sv,
			OrigUtility: u,
			Interner:    in,
		}
	})
	if err != nil {
		return nil, err
	}
	return states, nil
}

// applyUpdate updates an unselected query's state given a newly selected
// query (Section 4.3): the utility always shrinks by the influence
// F_qs(q) = S(qs,q)·U(q); the features change per the strategy.
//
//lint:hotpath
func applyUpdate(sel, q *QueryState, strategy UpdateStrategy) {
	if strategy == UpdateNone {
		return
	}
	sim := sel.Similarity(q)
	q.Utility -= q.Utility * sim
	if q.Utility < 0 {
		q.Utility = 0
	}
	switch strategy {
	case UpdateWeightSubtract:
		// Reduce q's feature weights by the selected query's weights,
		// scaled by similarity (option 1 in Section 4.3). The fused
		// kernel subtracts sel's weights scaled by sim in place — no
		// Clone().Scale(sim) temporary.
		q.Vec.SubClampedScaled(sel.Vec, sim)
	case UpdateFeatureRemove:
		// Zero the columns covered by the selected query (option 2).
		q.Vec.ZeroShared(sel.Vec)
	}
}

// updateResult is what one applyUpdateWithDelta call reports back to the
// greedy loop: the query's summary-contribution delta (when tracked and
// non-empty) and whether the update exhausted the query's features (so
// the loop can maintain its live-vector count without rescanning).
type updateResult struct {
	// util and vec are the change to the query's contribution
	// (Utility·Vec) to the workload summary; vec owns pooled storage and
	// must be Released after folding. Only meaningful when hasDelta.
	util     float64
	vec      features.SparseVec
	hasDelta bool
	// emptied is set when the update took the vector from live
	// (some weight > 0) to exhausted.
	emptied bool
}

// sharedScratch pools the pre-update weight snapshots taken by
// applyUpdateWithDelta.
var sharedScratch = sync.Pool{New: func() any { return new([]float64) }}

// applyUpdateWithDelta runs applyUpdate and, when track is set, computes
// the contribution delta with the merge-join kernels: the only entries an
// update can change are the IDs of sel.Vec, so it snapshots q's weights
// at those IDs, applies the update, and diffs. Safe to call concurrently
// for distinct q: it reads sel and mutates only q.
//
//lint:hotpath
func applyUpdateWithDelta(sel, q *QueryState, strategy UpdateStrategy, track bool) updateResult {
	if strategy == UpdateNone {
		return updateResult{}
	}
	wasLive := !q.Vec.AllZero()
	if !track {
		applyUpdate(sel, q, strategy)
		return updateResult{emptied: wasLive && q.Vec.AllZero()}
	}
	oldUtil := q.Utility
	buf := sharedScratch.Get().(*[]float64)
	shared := q.Vec.SharedWeights(sel.Vec, (*buf)[:0])
	applyUpdate(sel, q, strategy)
	newUtil := q.Utility
	d := features.UpdateDelta(q.Vec, sel.Vec, shared, oldUtil, newUtil)
	*buf = shared[:0]
	sharedScratch.Put(buf)

	res := updateResult{emptied: wasLive && q.Vec.AllZero()}
	if newUtil-oldUtil == 0 && d.Len() == 0 {
		d.Release()
		return res
	}
	res.util = newUtil - oldUtil
	res.vec = d
	res.hasDelta = true
	return res
}

// resetIfAllZero restores original features for unselected queries when
// every remaining query's features are exhausted (Algorithm 2, line 12).
// live is the greedy loop's maintained count of unselected states with
// non-exhausted vectors, so the common case is a counter check instead
// of an O(n) scan. Returns whether a reset happened and the new live
// count.
func resetIfAllZero(states []*QueryState, live int) (bool, int) {
	if live > 0 {
		return false, live
	}
	any := false
	n := 0
	for _, s := range states {
		if s.Selected {
			continue
		}
		s.Vec.Release()
		s.Vec = s.OrigVec.Clone()
		any = true
		if !s.Vec.AllZero() {
			n++
		}
	}
	return any, n
}

// countLive returns the number of unselected states whose vectors still
// carry weight — the initial value for the greedy loop's live counter.
func countLive(states []*QueryState) int {
	n := 0
	for _, s := range states {
		if !s.Selected && !s.Vec.AllZero() {
			n++
		}
	}
	return n
}
