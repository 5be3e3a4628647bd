package core

import (
	"math"
	"testing"
)

// TestIncrementalSummaryMatchesRebuild drives greedy rounds by hand,
// maintaining the summary incrementally (RemoveSelected + ApplyDelta, the
// default path) while also rebuilding it from scratch each round, and
// asserts the two agree. Agreement is within float tolerance, not
// bit-exact: subtracting a contribution is not the bitwise inverse of
// never having added it, which is exactly the noise the selection loop's
// epsilon tie-break absorbs.
func TestIncrementalSummaryMatchesRebuild(t *testing.T) {
	for name, opts := range map[string]Options{
		"feature-remove":  DefaultOptions(),
		"weight-subtract": withUpdate(DefaultOptions(), UpdateWeightSubtract),
		"utility-only":    withUpdate(DefaultOptions(), UpdateUtilityOnly),
		"isum-s":          ISUMSOptions(),
	} {
		t.Run(name, func(t *testing.T) {
			w := testWorkload(t)
			states := BuildStates(w, opts)
			inc := BuildSummary(states)

			for round := 0; round < 8; round++ {
				rebuilt := BuildSummary(states)
				if d := math.Abs(rebuilt.TotalUtility - inc.TotalUtility); d > 1e-9 {
					t.Fatalf("round %d: total utility drifted by %g (inc %v, rebuilt %v)",
						round, d, inc.TotalUtility, rebuilt.TotalUtility)
				}
				rebuilt.V().Each(func(k uint32, want float64) {
					got, _ := inc.V().Get(k)
					if d := math.Abs(got - want); d > 1e-9 {
						t.Fatalf("round %d: V[%d] drifted by %g (inc %v, rebuilt %v)",
							round, k, d, got, want)
					}
				})
				// Residue entries the incremental summary keeps at ~0 must
				// actually be ~0.
				inc.V().Each(func(k uint32, got float64) {
					if _, ok := rebuilt.V().Get(k); !ok && math.Abs(got) > 1e-9 {
						t.Fatalf("round %d: incremental residue V[%d] = %v", round, k, got)
					}
				})

				// Select the benefit argmax, as selectGreedy would.
				best := -1
				bestB := -1.0
				for i, s := range states {
					if s.Selected || s.Vec.AllZero() {
						continue
					}
					if b := BenefitSummary(s, rebuilt); b > bestB+1e-9 {
						bestB, best = b, i
					}
				}
				if best < 0 {
					break
				}
				sel := states[best]
				sel.Selected = true
				inc.RemoveSelected(sel)
				for _, s := range states {
					if s.Selected {
						continue
					}
					if r := applyUpdateWithDelta(sel, s, opts.Update, true); r.hasDelta {
						inc.ApplyDelta(r.util, r.vec)
						r.vec.Release()
					}
				}
			}
		})
	}
}

// TestRebuildSummaryFlagEquivalence checks the rebuild test hook end to
// end: the incremental default and the per-round rebuild select the same
// queries with the same weights.
func TestRebuildSummaryFlagEquivalence(t *testing.T) {
	w := testWorkload(t)
	incOpts := DefaultOptions()
	rebOpts := DefaultOptions()
	rebOpts.rebuildSummary = true

	for _, k := range []int{1, 4, 8, 16} {
		incRes := New(incOpts).Compress(w, k)
		rebRes := New(rebOpts).Compress(w, k)
		if len(incRes.Indices) != len(rebRes.Indices) {
			t.Fatalf("k=%d: selected %d vs %d queries", k, len(incRes.Indices), len(rebRes.Indices))
		}
		for i := range incRes.Indices {
			if incRes.Indices[i] != rebRes.Indices[i] {
				t.Fatalf("k=%d: selection diverged at position %d: %v vs %v",
					k, i, incRes.Indices, rebRes.Indices)
			}
			if d := math.Abs(incRes.Weights[i] - rebRes.Weights[i]); d > 1e-9 {
				t.Fatalf("k=%d: weight %d drifted by %g", k, i, d)
			}
			if d := math.Abs(incRes.SelectionBenefits[i] - rebRes.SelectionBenefits[i]); d > 1e-9 {
				t.Fatalf("k=%d: selection benefit %d drifted by %g", k, i, d)
			}
		}
	}
}

func withUpdate(o Options, u UpdateStrategy) Options {
	o.Update = u
	return o
}
