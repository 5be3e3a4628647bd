package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"isum/internal/cost"
	"isum/internal/workload"
)

// randomWorkload builds a random sub-workload of the shared test workload.
func randomWorkload(t *testing.T, rng *rand.Rand, minLen int) *workload.Workload {
	t.Helper()
	base := testWorkload(t)
	n := minLen + rng.Intn(base.Len()-minLen+1)
	perm := rng.Perm(base.Len())[:n]
	return base.Subset(perm)
}

// TestTheorem3Bound checks the summary-feature approximation bound of
// Theorem 3:
//
//	R/(n·U_L) ≤ F(V)/F(W) ≤ 1/(n·R·U_S)
//
// with R the smallest ratio between two values of the same feature, and
// U_S/U_L the min/max utilities over the workload.
func TestTheorem3Bound(t *testing.T) {
	w := testWorkload(t)
	states, err := BuildStatesContext(context.Background(), w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ss := BuildSummary(states)
	n := float64(len(states))

	// R: the smallest cross-query ratio of weights for any shared feature;
	// U_S, U_L over positive utilities.
	minW := map[uint32]float64{}
	maxW := map[uint32]float64{}
	for _, s := range states {
		s.Vec.Each(func(k uint32, v float64) {
			if v <= 0 {
				return
			}
			if cur, ok := minW[k]; !ok || v < cur {
				minW[k] = v
			}
			if cur, ok := maxW[k]; !ok || v > cur {
				maxW[k] = v
			}
		})
	}
	R := math.Inf(1)
	for k := range minW {
		if r := minW[k] / maxW[k]; r < R {
			R = r
		}
	}
	uS, uL := math.Inf(1), 0.0
	for _, s := range states {
		if s.Utility <= 0 {
			continue
		}
		if s.Utility < uS {
			uS = s.Utility
		}
		if s.Utility > uL {
			uL = s.Utility
		}
	}
	lower := R / (n * uL)
	upper := 1 / (n * R * uS)

	for _, s := range states {
		fw := InfluenceOnWorkload(s, states)
		if fw <= 0 {
			continue
		}
		ratio := InfluenceOnSummary(s, ss) / fw
		if ratio < lower*(1-1e-9) || ratio > upper*(1+1e-9) {
			t.Fatalf("query %d: ratio %f outside Theorem-3 bounds [%f, %f]",
				s.Index, ratio, lower, upper)
		}
	}
}

// TestSubmodularityConditionC1 checks condition C1 of Theorem 2: the
// conditional influence of an unselected query z over another unselected
// query decreases (weakly) as more queries are selected, under the default
// feature-remove updates.
func TestSubmodularityConditionC1(t *testing.T) {
	w := testWorkload(t)
	opts := DefaultOptions()

	// Influence of z on q' after selecting the given prefix.
	influenceAfter := func(prefix []int, z, qp int) float64 {
		states, err := BuildStatesContext(context.Background(), w, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, sel := range prefix {
			states[sel].Selected = true
			for _, s := range states {
				if !s.Selected {
					applyUpdate(states[sel], s, opts.Update)
				}
			}
		}
		return Influence(states[z], states[qp])
	}

	z, qp := 13, 14 // two join-cluster queries, never in the prefixes below
	small := influenceAfter([]int{0}, z, qp)
	large := influenceAfter([]int{0, 6, 1}, z, qp)
	if large > small+1e-9 {
		t.Fatalf("C1 violated: influence grew from %f to %f after selecting more", small, large)
	}
}

// TestUtilityMonotoneUnderUpdates verifies utilities never increase and
// never go negative through any update sequence.
func TestUtilityMonotoneUnderUpdates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := testWorkload(t)
		states, err := BuildStatesContext(context.Background(), w, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 5; step++ {
			sel := states[rng.Intn(len(states))]
			before := map[int]float64{}
			for _, s := range states {
				before[s.Index] = s.Utility
			}
			for _, s := range states {
				if s != sel {
					applyUpdate(sel, s, UpdateFeatureRemove)
				}
			}
			for _, s := range states {
				if s == sel {
					continue
				}
				if s.Utility > before[s.Index]+1e-12 || s.Utility < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestCompressContractQuick fuzzes the Compress contract over random
// sub-workloads, k values, and option combinations.
func TestCompressContractQuick(t *testing.T) {
	f := func(seed int64, kRaw uint8, alg, upd, wgh uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomWorkload(t, rng, 2)
		k := int(kRaw)%w.Len() + 1

		opts := DefaultOptions()
		if alg%2 == 1 {
			opts.Algorithm = AllPairs
		}
		opts.Update = UpdateStrategy(upd % 4)
		opts.Weighing = WeighStrategy(wgh % 4)

		res := compress(t, New(opts), w, k)
		if len(res.Indices) != k || len(res.Weights) != k {
			return false
		}
		seen := map[int]bool{}
		var sum float64
		for i, idx := range res.Indices {
			if idx < 0 || idx >= w.Len() || seen[idx] {
				return false
			}
			seen[idx] = true
			if res.Weights[i] < 0 {
				return false
			}
			sum += res.Weights[i]
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSummaryMatchesManualSum cross-checks BuildSummary against a direct
// computation of Definition 11.
func TestSummaryMatchesManualSum(t *testing.T) {
	w := testWorkload(t)
	states, err := BuildStatesContext(context.Background(), w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ss := BuildSummary(states)
	manual := map[uint32]float64{}
	for _, s := range states {
		s.Vec.Each(func(k uint32, v float64) {
			manual[k] += v * s.Utility
		})
	}
	if len(manual) != ss.V().Len() {
		t.Fatalf("support mismatch: %d vs %d", len(manual), ss.V().Len())
	}
	for k, v := range manual {
		got, _ := ss.V().Get(k)
		if math.Abs(got-v) > 1e-9 {
			t.Fatalf("summary[%d] = %f, want %f", k, got, v)
		}
	}
}

// TestAllPairsVsSummaryBenefitCorrelated sanity-checks that the two benefit
// computations rank queries similarly (Spearman-ish check via top pick).
func TestAllPairsVsSummaryBenefitCorrelated(t *testing.T) {
	w := testWorkload(t)
	states, err := BuildStatesContext(context.Background(), w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ss := BuildSummary(states)
	ap := make([]float64, len(states))
	sum := make([]float64, len(states))
	for i, s := range states {
		ap[i] = BenefitAllPairs(s, states)
		sum[i] = BenefitSummary(s, ss)
	}
	// Exact agreement is not expected (Fig. 8 reports 0.83 vs 0.87 against
	// ground truth); require a clearly positive correlation between the two
	// estimators.
	if r := pearson(ap, sum); r < 0.3 {
		t.Fatalf("all-pairs and summary benefits barely correlated: r=%f\nap=%v\nsum=%v", r, ap, sum)
	}
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

func init() {
	// Silence unused-import lint for cost used by testWorkload in core_test.
	_ = cost.SeqPageCost
	_ = fmt.Sprint
}
