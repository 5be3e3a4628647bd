package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"time"

	"isum/internal/parallel"
	"isum/internal/telemetry"
	"isum/internal/workload"
)

// Result is the output of workload compression: the selected query indices
// (in selection order), their weights, and diagnostics.
type Result struct {
	// Indices are positions into the input workload, in selection order.
	Indices []int
	// Weights are the queries' weights (parallel to Indices), normalised to
	// sum to 1 when weighing is enabled.
	Weights []float64
	// SelectionBenefits are the conditional benefits at selection time.
	SelectionBenefits []float64
	// Elapsed is the wall-clock compression time.
	Elapsed time.Duration

	// Partial marks an anytime result: the context was cancelled (or its
	// deadline expired) before k queries were selected, and Indices hold
	// the best-so-far prefix — every entry is a completed greedy selection,
	// weighed as usual. False means the run finished.
	Partial bool
	// Rounds is the number of greedy rounds completed: selections plus
	// feature-reset rounds (Algorithm 2, line 12). A Partial result stopped
	// after exactly Rounds rounds.
	Rounds int
}

// Compressor runs ISUM workload compression.
type Compressor struct {
	opts Options
}

// New returns a compressor with the given options.
func New(opts Options) *Compressor { return &Compressor{opts: opts} }

// Options returns the compressor's options.
func (c *Compressor) Options() Options { return c.opts }

// Name identifies the configured variant.
func (c *Compressor) Name() string {
	switch {
	case c.opts.Algorithm == AllPairs:
		return "ISUM-AllPairs"
	case !c.opts.UseTableWeight:
		return "ISUM-NoTable"
	case c.opts.Utility == UtilityCostSelectivity:
		return "ISUM-S"
	default:
		return "ISUM"
	}
}

// Compress selects k queries from w (Problem 1) and weighs them. For k ≥
// n every query is selected with weight 1/n. It panics where
// CompressContext returns an error.
func (c *Compressor) Compress(w *workload.Workload, k int) *Result {
	res, err := c.CompressContext(context.Background(), w, k)
	if err != nil {
		panic(err)
	}
	return res
}

// CompressContext is Compress with the anytime contract (DESIGN.md §9):
// when ctx is cancelled or its deadline expires, the greedy loop stops at
// its next round boundary and the queries selected so far are weighed and
// returned as a valid Result with Partial set — never a panic, never nil.
// An already-cancelled ctx yields an empty Partial result. The error is
// reserved for real failures — a query whose cost is NaN, ±Inf or
// negative (the lowest such position is named), or a contained worker
// panic; cancellation is not an error.
func (c *Compressor) CompressContext(ctx context.Context, w *workload.Workload, k int) (*Result, error) {
	start := time.Now() //lint:allow determinism Result.Elapsed timing only; greedy selection never reads the clock
	reg := c.opts.Telemetry
	root := reg.Start("core/compress")
	defer root.End()
	root.SetAttr("variant", c.Name())

	res := &Result{}
	n := w.Len()
	if n == 0 || k <= 0 {
		res.Elapsed = time.Since(start)
		return res, nil
	}
	if k > n {
		k = n
	}
	if reg != nil {
		root.SetAttr("n", n)
		root.SetAttr("k", k)
	}

	states, repIdx, err := c.buildUniverse(ctx, w)
	if err != nil {
		if isCancel(err) {
			res.Partial = true
			res.Elapsed = time.Since(start)
			return res, nil
		}
		return nil, err
	}
	// Template hash-consing may have collapsed the universe below k.
	if k > len(states) {
		k = len(states)
	}
	idx := buildPostings(states)
	sg := reg.Start("core/select-greedy")
	err = c.selectGreedy(ctx, states, idx, k, res)
	sg.SetAttr("selected", len(res.Indices))
	sg.End()
	if err != nil {
		return nil, err
	}
	sw := reg.Start("core/weigh")
	res.Weights = c.weigh(states, idx, res)
	sw.End()
	if repIdx != nil {
		// Consed indices are template-state positions; translate back to
		// workload positions (each template's representative instance).
		for i, g := range res.Indices {
			res.Indices[i] = repIdx[g]
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// buildUniverse builds the selection universe: one state per query, or —
// with ConsTemplates — one state per distinct template plus the mapping
// from template-state position back to the representative query's
// workload position (nil when consing is off, i.e. states are already in
// workload positions).
func (c *Compressor) buildUniverse(ctx context.Context, w *workload.Workload) ([]*QueryState, []int, error) {
	if c.opts.ConsTemplates {
		return BuildConsedStatesContext(ctx, w, c.opts)
	}
	states, err := BuildStatesContext(ctx, w, c.opts)
	return states, nil, err
}

// CompressedWorkload runs Compress and materialises the weighted compressed
// workload ready for the tuner.
func (c *Compressor) CompressedWorkload(w *workload.Workload, k int) (*workload.Workload, *Result) {
	res := c.Compress(w, k)
	return w.WeightedSubset(res.Indices, res.Weights), res
}

// CompressedWorkloadContext is CompressedWorkload under the anytime
// contract: on cancellation the materialised workload holds the Partial
// result's selections (possibly empty), and the error mirrors
// CompressContext's.
func (c *Compressor) CompressedWorkloadContext(ctx context.Context, w *workload.Workload, k int) (*workload.Workload, *Result, error) {
	res, err := c.CompressContext(ctx, w, k)
	if err != nil {
		return nil, nil, err
	}
	return w.WeightedSubset(res.Indices, res.Weights), res, nil
}

// isCancel reports whether err stems from context cancellation or deadline
// expiry — the anytime outcomes, as opposed to real failures.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// selectGreedy runs the configured greedy algorithm, appending selections
// to res. It returns a non-nil error only for real failures (contained
// worker panics); cancellation sets res.Partial and returns nil, leaving
// res.Indices the completed-selection prefix.
//
// Each round's argmax is a parallel sweep and a serial scan. The sweep
// fans out across c.opts.Parallelism workers and writes, per state, an
// upper bound on its benefit: the exact benefit for AllPairs, an O(|q|)
// bound from the summary otherwise (DenseVec.BenefitBound, DESIGN.md
// §18). The scan then runs the epsilon argmax in index order and
// computes a summary benefit exactly only where the bound could beat the
// running best. A state whose bound cannot beat it would not have been
// taken, and the scan's state changes only on a take, so the selection,
// benefits and rounds are those of evaluating every state exactly — at
// any worker count.
//
// The summary features are maintained incrementally (RemoveSelected +
// per-query ApplyDelta, applied in index order) instead of rebuilt O(n)
// every round; the rebuildSummary test hook restores the literal rebuild.
//
// The update sweep after a pick visits only the unselected states idx
// lists under the pick's IDs, in ascending order. Every other state
// shares no ID with the pick, so its update is a bitwise no-op with no
// delta (DESIGN.md §20), and folding the visited states' deltas in
// ascending order folds exactly the deltas a sweep over all n would.
//
// Cancellation is observed at round boundaries and inside the parallel
// sweeps. A benefit sweep cut short discards the round (no selection from
// partial bounds); an update sweep cut short keeps the round's selection
// — it was already decided — and abandons the state updates, which only
// feed rounds that will never run.
func (c *Compressor) selectGreedy(ctx context.Context, states []*QueryState, idx *postings, k int, res *Result) error {
	workers := parallel.Workers(c.opts.Parallelism)
	summary := c.opts.Algorithm != AllPairs
	incremental := summary && !c.opts.rebuildSummary
	var ss *SummaryState
	if summary {
		ss = BuildSummary(states)
	}

	// Telemetry handles (all nil-safe; resolved once, not per round). The
	// disabled path costs a pointer check per round and never calls
	// time.Now.
	reg := c.opts.Telemetry
	var argmaxNanos, updateNanos *telemetry.Histogram
	var rounds, resets, exactBenefits, touchedStates *telemetry.Counter
	if reg != nil {
		argmaxNanos = reg.Histogram("core/greedy/argmax_nanos", telemetry.DurationBuckets)
		updateNanos = reg.Histogram("core/greedy/update_nanos", telemetry.DurationBuckets)
		rounds = reg.Counter("core/greedy/rounds")
		resets = reg.Counter("core/greedy/feature_resets")
		exactBenefits = reg.Counter("core/greedy/exact_benefits")
		touchedStates = reg.Counter("core/greedy/touched")
	}

	// live counts unselected states whose vectors still carry weight, so
	// the all-exhausted check is a counter read instead of an O(n) scan
	// every round. Selections and emptying updates decrement it;
	// feature resets recount it.
	live := countLive(states)
	ineligible := math.Inf(-1)
	// Per-round sweep outputs, reused across rounds: bounds is
	// index-addressed, updates parallel to the round's touched states.
	bounds := make([]float64, len(states))
	var updates []updateResult
	unselected := func(i int32) bool { return !states[i].Selected }
	for len(res.Indices) < k {
		if ctx.Err() != nil {
			res.Partial = true
			return nil
		}
		rsp := reg.Start("core/greedy/round")
		rounds.Inc()
		if summary {
			if c.opts.rebuildSummary {
				ss.rebuild(states)
			}
			ss.V() // snapshot serially: the bound sweep reads it from every worker
		}
		var tArgmax time.Time
		if reg != nil {
			tArgmax = time.Now() //lint:allow determinism argmax_nanos histogram only; benefits never read the clock
		}
		err := parallel.ForEach(ctx, workers, len(states), func(i int) {
			s := states[i]
			switch {
			case s.Selected || s.Vec.AllZero():
				bounds[i] = ineligible
			case summary:
				bounds[i] = ss.v.BenefitBound(s.Vec, s.Utility, ss.TotalUtility)
			default:
				bounds[i] = BenefitAllPairs(s, states)
			}
		})
		if err != nil {
			rsp.SetAttr("outcome", "cancelled")
			rsp.End()
			if isCancel(err) {
				res.Partial = true
				return nil
			}
			return err
		}

		// benefitEps breaks near-ties deterministically: the first state
		// in index order to beat the running best by more than benefitEps
		// takes the lead (DESIGN.md §18 states the resulting contract).
		// SparseVec kernels accumulate in ascending-ID order, so benefits
		// are bit-identical across runs and worker counts; the tolerance
		// is kept so the selection is also stable across representation
		// changes (the map oracle, future kernel reorderings) that only
		// move the last ulps.
		const benefitEps = 1e-9
		var best *QueryState
		bestBenefit := -1.0
		exact := 0
		for i, ub := range bounds {
			if !(ub > bestBenefit+benefitEps) {
				continue // its benefit ≤ ub cannot take the lead either
			}
			b := ub
			if summary {
				b = BenefitSummary(states[i], ss)
				exact++
			}
			if b > bestBenefit+benefitEps {
				bestBenefit, best = b, states[i]
			}
		}
		if reg != nil {
			argmaxNanos.Observe(float64(time.Since(tArgmax).Nanoseconds()))
			exactBenefits.Add(int64(exact))
			rsp.SetAttr("exact", exact)
		}

		if best == nil {
			// Every remaining query has zero-weight features: reset to the
			// original features (Algorithm 2, line 12) and retry; if reset
			// does nothing we are out of selectable queries.
			var didReset bool
			didReset, live = resetIfAllZero(states, live)
			if !didReset || allSelected(states) {
				rsp.SetAttr("outcome", "exhausted")
				rsp.End()
				return nil
			}
			resets.Inc()
			if incremental {
				ss.rebuild(states)
			}
			res.Rounds++
			rsp.SetAttr("outcome", "feature-reset")
			rsp.End()
			continue
		}

		best.Selected = true
		live-- // best was selectable, so it was counted live
		res.Indices = append(res.Indices, best.Index)
		res.SelectionBenefits = append(res.SelectionBenefits, bestBenefit)
		res.Rounds++
		if reg != nil {
			rsp.SetAttr("selected", best.Index)
			rsp.SetAttr("benefit", bestBenefit)
		}
		var tUpdate time.Time
		if reg != nil {
			tUpdate = time.Now() //lint:allow determinism update_nanos histogram only; summary updates never read the clock
		}
		if incremental {
			ss.RemoveSelected(best)
		}
		var touched []int32
		if c.opts.Update != UpdateNone {
			touched = idx.touched(best.Vec, unselected)
		}
		updates = slices.Grow(updates[:0], len(touched))[:len(touched)]
		err = parallel.ForEach(ctx, workers, len(touched), func(j int) {
			updates[j] = applyUpdateWithDelta(best, states[touched[j]], c.opts.Update, incremental)
		})
		if err != nil {
			rsp.SetAttr("outcome", "cancelled")
			rsp.End()
			if isCancel(err) {
				res.Partial = true
				return nil
			}
			return err
		}
		if reg != nil {
			touchedStates.Add(int64(len(touched)))
			rsp.SetAttr("touched", len(touched))
		}
		for i := range updates {
			u := &updates[i]
			if u.hasDelta {
				if incremental {
					ss.ApplyDelta(u.util, u.vec)
				}
				u.vec.Release()
			}
			if u.emptied {
				live--
			}
		}
		if reg != nil {
			updateNanos.Observe(float64(time.Since(tUpdate).Nanoseconds()))
		}
		rsp.End()
	}
	return nil
}

func allSelected(states []*QueryState) bool {
	for _, s := range states {
		if !s.Selected {
			return false
		}
	}
	return true
}
