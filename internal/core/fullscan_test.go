package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"isum/internal/parallel"
	"isum/internal/workload"
)

// fullScanSelectGreedy is selectGreedy before the bound-gated argmax: every
// eligible state's benefit is computed exactly in the parallel sweep and
// the epsilon scan runs over all of them. It is the reference the
// production greedy is pinned to; telemetry and progress emission are
// left out, since they never change the selection.
func (c *Compressor) fullScanSelectGreedy(ctx context.Context, states []*QueryState, k int, res *Result) error {
	workers := parallel.Workers(c.opts.Parallelism)
	summary := c.opts.Algorithm != AllPairs
	incremental := summary && !c.opts.RebuildSummary
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
		if summary && c.opts.RebuildSummary {
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
			if isCancel(err) {
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
			if isCancel(err) {
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

// fullScanCompress is Compress with the full-scan reference greedy.
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
	res.Weights = c.weigh(w, states, res)
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

// TestBoundedArgmaxMatchesFullScan pins the bound-gated argmax to the full
// scan at the sizes where a divergence would show: Scale-M at 10⁴ queries
// (k = 50, 150) and the four paper generators at 2–3×10³, under five
// option variants, two instance seeds, and parallelism 1 and 4. Indices,
// weights, selection benefits and rounds must match exactly. The 10⁴
// cases are skipped under -short and -race.
func TestBoundedArgmaxMatchesFullScan(t *testing.T) {
	type variant struct {
		name string
		opts Options
	}
	variants := []variant{
		{"default", DefaultOptions()},
		{"isum-s", ISUMSOptions()},
		{"weight-subtract", withUpdate(DefaultOptions(), UpdateWeightSubtract)},
		{"consed", func() Options { o := DefaultOptions(); o.ConsTemplates = true; return o }()},
		{"rebuild-summary", func() Options { o := DefaultOptions(); o.RebuildSummary = true; return o }()},
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
				w := seededWorkload(t, wc.gen, wc.n, seed)
				for _, v := range variants {
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
