package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"isum/internal/faults"
	"isum/internal/features"
	"isum/internal/parallel"
	"isum/internal/workload"
)

// fullScanSelectGreedy is selectGreedy before the bound-gated argmax and
// the posting-list update sweep: every eligible state's benefit is
// computed exactly in the parallel sweep, the epsilon scan runs over all
// of them, and every unselected state is updated after each pick. It is
// the reference the production greedy is pinned to; telemetry is left
// out, since it never changes the selection.
func (c *Compressor) fullScanSelectGreedy(ctx context.Context, states []*QueryState, k int, res *Result) error {
	workers := parallel.Workers(c.opts.Parallelism)
	summary := c.opts.Algorithm != AllPairs
	incremental := summary && !c.opts.rebuildSummary
	var ss *SummaryState
	if summary {
		ss = BuildSummary(states)
	}
	live := countLive(states)
	ineligible := math.Inf(-1)
	for len(res.Indices) < k {
		if ctx.Err() != nil {
			res.Partial = true
			return nil
		}
		if summary && c.opts.rebuildSummary {
			ss = BuildSummary(states)
		}
		if summary {
			ss.V() // snapshot serially before the concurrent sweep reads it
		}
		benefits, err := parallel.Map(ctx, workers, len(states), func(i int) float64 {
			s := states[i]
			if s.Selected || s.Vec.AllZero() {
				return ineligible
			}
			if c.opts.Algorithm == AllPairs {
				return BenefitAllPairs(s, states)
			}
			return BenefitSummary(s, ss)
		})
		if err != nil {
			if faults.IsCancellation(err) {
				res.Partial = true
				return nil
			}
			return err
		}

		const benefitEps = 1e-9
		var best *QueryState
		bestBenefit := -1.0
		for i, b := range benefits {
			if b > bestBenefit+benefitEps {
				bestBenefit, best = b, states[i]
			}
		}

		if best == nil {
			var didReset bool
			didReset, live = resetIfAllZero(states, live)
			if !didReset || allSelected(states) {
				return nil
			}
			if incremental {
				ss = BuildSummary(states)
			}
			res.Rounds++
			continue
		}

		best.Selected = true
		live--
		res.Indices = append(res.Indices, best.Index)
		res.SelectionBenefits = append(res.SelectionBenefits, bestBenefit)
		res.Rounds++
		if incremental {
			ss.RemoveSelected(best)
		}
		updates, err := parallel.Map(ctx, workers, len(states), func(i int) updateResult {
			s := states[i]
			if s.Selected {
				return updateResult{}
			}
			return applyUpdateWithDelta(best, s, c.opts.Update, incremental)
		})
		if err != nil {
			if faults.IsCancellation(err) {
				res.Partial = true
				return nil
			}
			return err
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
	}
	return nil
}

// fullScanWeigh is weigh with the reference recalibration.
func (c *Compressor) fullScanWeigh(states []*QueryState, res *Result) []float64 {
	switch c.opts.Weighing {
	case WeighNone, WeighSelectionBenefit:
		return c.weigh(states, nil, res)
	default:
		return fullScanRecalibrate(states, res, c.opts.Weighing == WeighTemplateRecalibrated)
	}
}

// fullScanRecalibrate is recalibrate before the posting-list sweep:
// after each pick it updates every query of W_u, each held as a fresh
// clone of its OrigVec, and it keeps its tables in maps keyed by state
// position. It is the reference the production weighing is pinned to.
func fullScanRecalibrate(states []*QueryState, res *Result, useTemplates bool) []float64 {
	selectedSet := map[int]bool{}
	for _, idx := range res.Indices {
		selectedSet[idx] = true
	}

	utility := map[int]float64{}
	excluded := map[int]bool{} // unselected queries removed from W_u
	if useTemplates {
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
					excluded[s.Index] = true
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

	type refState struct {
		vec  features.SparseVec
		util float64
	}
	var wu []*refState
	for _, s := range states {
		if selectedSet[s.Index] || excluded[s.Index] {
			continue
		}
		wu = append(wu, &refState{vec: s.OrigVec.Clone(), util: s.OrigUtility})
	}

	remaining := append([]int{}, res.Indices...)
	benefit := map[int]float64{}
	total := 0.0
	acc := features.NewDenseVec(featureSpace(states))
	for len(remaining) > 0 {
		acc.Reset()
		for _, u := range wu {
			acc.AddScaled(u.vec, u.util)
		}
		summary := acc.Snapshot()
		bestPos, bestB := -1, -1.0
		for pos, idx := range remaining {
			b := utility[idx] + states[idx].OrigVec.WeightedJaccard(summary)
			if b > bestB+1e-9 {
				bestB, bestPos = b, pos
			}
		}
		idx := remaining[bestPos]
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)
		benefit[idx] = bestB
		total += bestB
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

// fullScanCompress is Compress with the full-scan reference greedy and
// weighing.
func fullScanCompress(t testing.TB, c *Compressor, w *workload.Workload, k int) *Result {
	t.Helper()
	res := &Result{}
	if k > w.Len() {
		k = w.Len()
	}
	states, repIdx, err := c.buildUniverse(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if k > len(states) {
		k = len(states)
	}
	if err := c.fullScanSelectGreedy(context.Background(), states, k, res); err != nil {
		t.Fatal(err)
	}
	res.Weights = c.fullScanWeigh(states, res)
	for i, g := range res.Indices {
		if repIdx != nil {
			res.Indices[i] = repIdx[g]
		}
	}
	return res
}

// sameResult fails unless got and want agree exactly: indices, bitwise
// weights and selection benefits, and rounds.
func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Indices) != len(want.Indices) {
		t.Fatalf("selected %d queries, reference %d", len(got.Indices), len(want.Indices))
	}
	for i := range got.Indices {
		if got.Indices[i] != want.Indices[i] {
			t.Fatalf("selection diverged at %d: got %v, reference %v", i, got.Indices, want.Indices)
		}
		if math.Float64bits(got.Weights[i]) != math.Float64bits(want.Weights[i]) {
			t.Fatalf("weight %d: got %x (%v), reference %x (%v)", i,
				math.Float64bits(got.Weights[i]), got.Weights[i],
				math.Float64bits(want.Weights[i]), want.Weights[i])
		}
		if math.Float64bits(got.SelectionBenefits[i]) != math.Float64bits(want.SelectionBenefits[i]) {
			t.Fatalf("benefit %d: got %x (%v), reference %x (%v)", i,
				math.Float64bits(got.SelectionBenefits[i]), got.SelectionBenefits[i],
				math.Float64bits(want.SelectionBenefits[i]), want.SelectionBenefits[i])
		}
	}
	if got.Rounds != want.Rounds {
		t.Fatalf("rounds: got %d, reference %d", got.Rounds, want.Rounds)
	}
}

// TestBoundedArgmaxMatchesFullScan pins the bound-gated argmax and the
// posting-list update sweeps of selection and weighing to the full scans
// at the sizes where a divergence would show: Scale-M at 10⁴ queries
// (k = 50, 150) and the four paper generators at 2–3×10³, under option
// variants covering every update strategy and weighing sweep, two
// instance seeds, and parallelism 1 and 4. Indices, weights, selection
// benefits and rounds must match exactly. The 10⁴ cases run the first
// five variants only and are skipped under -short and -race; AllPairs,
// O(k·n²), runs on each workload's first 300 queries. Under -race the
// 2–3×10³ cases also run only the first five: the others add option
// combinations, not concurrent code, and would add minutes to the run.
func TestBoundedArgmaxMatchesFullScan(t *testing.T) {
	type variant struct {
		name  string
		opts  Options
		small bool // skipped on the 10⁴ case and under -race
		n     int  // if set, compress only the workload's first n queries
	}
	allPairs := DefaultOptions()
	allPairs.Algorithm = AllPairs
	recalibrated := DefaultOptions()
	recalibrated.Weighing = WeighRecalibrated
	variants := []variant{
		{name: "default", opts: DefaultOptions()},
		{name: "isum-s", opts: ISUMSOptions()},
		{name: "weight-subtract", opts: withUpdate(DefaultOptions(), UpdateWeightSubtract)},
		{name: "consed", opts: func() Options { o := DefaultOptions(); o.ConsTemplates = true; return o }()},
		{name: "rebuild-summary", opts: func() Options { o := DefaultOptions(); o.rebuildSummary = true; return o }()},
		{name: "utility-only", opts: withUpdate(DefaultOptions(), UpdateUtilityOnly), small: true},
		{name: "update-none", opts: withUpdate(DefaultOptions(), UpdateNone), small: true},
		{name: "weigh-recalibrated", opts: recalibrated, small: true},
		{name: "notable", opts: NoTableOptions(), small: true},
		{name: "allpairs", opts: allPairs, small: true, n: 300},
	}
	type workloadCase struct {
		gen   string
		n     int
		ks    []int
		large bool
	}
	cases := []workloadCase{
		{gen: "scalem", n: 10000, ks: []int{50, 150}, large: true},
		{gen: "tpch", n: 2200, ks: []int{23, 100}},
		{gen: "tpcds", n: 2000, ks: []int{25, 100}},
		{gen: "dsb", n: 2000, ks: []int{25, 100}},
		{gen: "realm", n: 3000, ks: []int{25, 100}},
	}
	for _, wc := range cases {
		for _, seed := range []int64{1, 104729} {
			name := fmt.Sprintf("%s-%d/seed=%d", wc.gen, wc.n, seed)
			t.Run(name, func(t *testing.T) {
				if wc.large && (testing.Short() || raceEnabled) {
					t.Skip("10⁴-query case: skipped under -short and -race")
				}
				full := seededWorkload(t, wc.gen, wc.n, seed)
				for _, v := range variants {
					if v.small && (wc.large || raceEnabled) {
						continue
					}
					w := full
					if v.n > 0 {
						w = &workload.Workload{Catalog: full.Catalog, Queries: full.Queries[:v.n]}
					}
					for _, k := range wc.ks {
						ref := v.opts
						ref.Parallelism = 4
						want := fullScanCompress(t, New(ref), w, k)
						for _, par := range []int{1, 4} {
							t.Run(fmt.Sprintf("%s/k=%d/parallelism=%d", v.name, k, par), func(t *testing.T) {
								opts := v.opts
								opts.Parallelism = par
								sameResult(t, New(opts).Compress(w, k), want)
							})
						}
					}
				}
			})
		}
	}
}
