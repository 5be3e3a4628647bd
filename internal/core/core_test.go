package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"isum/internal/catalog"
	"isum/internal/cost"
	"isum/internal/features"
	"isum/internal/workload"
)

// testCatalog builds a small catalog with two tables.
func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	o := catalog.NewTable("orders", 1000000)
	o.AddColumn(&catalog.Column{Name: "o_orderkey", Type: catalog.TypeInt, DistinctCount: 1000000, Min: 1, Max: 1000000,
		Hist: catalog.SyntheticHistogram(1, 1000000, 1000000, 1000000, 40, 0)})
	o.AddColumn(&catalog.Column{Name: "o_custkey", Type: catalog.TypeInt, DistinctCount: 100000, Min: 1, Max: 100000,
		Hist: catalog.SyntheticHistogram(1, 100000, 1000000, 100000, 40, 0)})
	o.AddColumn(&catalog.Column{Name: "o_totalprice", Type: catalog.TypeDecimal, DistinctCount: 900000, Min: 1, Max: 500000,
		Hist: catalog.SyntheticHistogram(1, 500000, 1000000, 900000, 40, 0)})
	cat.AddTable(o)
	c := catalog.NewTable("customer", 100000)
	c.AddColumn(&catalog.Column{Name: "c_custkey", Type: catalog.TypeInt, DistinctCount: 100000, Min: 1, Max: 100000,
		Hist: catalog.SyntheticHistogram(1, 100000, 100000, 100000, 20, 0)})
	c.AddColumn(&catalog.Column{Name: "c_nationkey", Type: catalog.TypeInt, DistinctCount: 25, Min: 0, Max: 24,
		Hist: catalog.SyntheticHistogram(0, 24, 100000, 25, 25, 0)})
	cat.AddTable(c)
	return cat
}

// testWorkload builds a workload with 3 distinct "clusters" of queries plus
// cost skew, so compression choices are meaningful.
func testWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	cat := testCatalog()
	var sqls []string
	// Cluster A: selective orders lookups (high cost reduction potential).
	for i := 0; i < 6; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT o_totalprice FROM orders WHERE o_orderkey = %d", 100+i))
	}
	// Cluster B: customer filters.
	for i := 0; i < 6; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT c_custkey FROM customer WHERE c_nationkey = %d", i))
	}
	// Cluster C: joins.
	for i := 0; i < 4; i++ {
		sqls = append(sqls, fmt.Sprintf(
			"SELECT o_totalprice FROM customer, orders WHERE c_custkey = o_custkey AND c_nationkey = %d", i))
	}
	w, err := workload.New(cat, sqls)
	if err != nil {
		t.Fatal(err)
	}
	if err := cost.NewOptimizer(cat).FillCostsCtx(context.Background(), w, 0); err != nil {
		t.Fatal(err)
	}
	return w
}

// compress runs c.CompressContext on a background context, failing the
// test on an error.
func compress(t testing.TB, c *Compressor, w *workload.Workload, k int) *Result {
	t.Helper()
	res, err := c.CompressContext(context.Background(), w, k)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBuildStatesUtilities(t *testing.T) {
	w := testWorkload(t)
	states, err := BuildStatesContext(context.Background(), w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range states {
		if s.Utility < 0 {
			t.Fatalf("negative utility: %+v", s)
		}
		sum += s.Utility
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("utilities sum to %f, want 1", sum)
	}
	// Cost-only utility must be proportional to cost.
	for _, s := range states {
		want := s.Query.Cost / w.TotalCost()
		if math.Abs(s.Utility-want) > 1e-9 {
			t.Fatalf("utility %f != cost share %f", s.Utility, want)
		}
	}
}

func TestUtilityModes(t *testing.T) {
	w := testWorkload(t)
	costOnly, err := BuildStatesContext(context.Background(), w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := BuildStatesContext(context.Background(), w, ISUMSOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Both normalise to 1, but the distributions must differ because
	// selectivities differ across queries.
	diff := 0.0
	for i := range costOnly {
		diff += math.Abs(costOnly[i].Utility - stats[i].Utility)
	}
	if diff < 1e-6 {
		t.Fatal("selectivity-aware utility should differ from cost-only")
	}
}

func TestInfluenceAndBenefit(t *testing.T) {
	w := testWorkload(t)
	states, err := BuildStatesContext(context.Background(), w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Same-template queries are highly similar: influence ≈ utility.
	f01 := Influence(states[0], states[1])
	if math.Abs(f01-states[1].Utility) > 1e-9 {
		t.Fatalf("same-template influence = %f, want %f", f01, states[1].Utility)
	}
	// Cross-cluster influence should be much smaller.
	f06 := Influence(states[0], states[6])
	if f06 >= f01 {
		t.Fatalf("cross-cluster influence %f >= same-template %f", f06, f01)
	}
	if Influence(states[0], states[0]) != 0 {
		t.Fatal("self influence must be 0")
	}
	// Benefit = utility + total influence ≥ utility.
	b := BenefitAllPairs(states[0], states)
	if b < states[0].Utility {
		t.Fatalf("benefit %f below utility %f", b, states[0].Utility)
	}
}

func TestSummaryApproximatesAllPairs(t *testing.T) {
	w := testWorkload(t)
	states, err := BuildStatesContext(context.Background(), w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ss := BuildSummary(states)
	// Fig. 8a: for most queries the ratio F(V)/F(W) is within a small
	// constant factor.
	within := 0
	for _, s := range states {
		fw := InfluenceOnWorkload(s, states)
		fv := InfluenceOnSummary(s, ss)
		if fw <= 0 {
			continue
		}
		ratio := fv / fw
		if ratio > 0.1 && ratio < 10 {
			within++
		}
	}
	if within < len(states)*7/10 {
		t.Fatalf("only %d/%d queries within 10x summary error", within, len(states))
	}
}

func TestCompressSelectsAcrossClusters(t *testing.T) {
	w := testWorkload(t)
	c := New(DefaultOptions())
	res := compress(t, c, w, 3)
	if len(res.Indices) != 3 {
		t.Fatalf("selected %d queries", len(res.Indices))
	}
	// The three picks should span the three clusters (A: 0-5, B: 6-11, C: 12-15):
	// picking duplicates from one cluster wastes the budget.
	clusters := map[int]bool{}
	for _, idx := range res.Indices {
		switch {
		case idx < 6:
			clusters[0] = true
		case idx < 12:
			clusters[1] = true
		default:
			clusters[2] = true
		}
	}
	if len(clusters) != 3 {
		t.Fatalf("selections %v span only %d clusters", res.Indices, len(clusters))
	}
}

func TestCompressAllPairsAgreesRoughly(t *testing.T) {
	w := testWorkload(t)
	sum := compress(t, New(DefaultOptions()), w, 3)
	apOpts := DefaultOptions()
	apOpts.Algorithm = AllPairs
	ap := compress(t, New(apOpts), w, 3)
	if len(ap.Indices) != 3 || len(sum.Indices) != 3 {
		t.Fatal("selection sizes wrong")
	}
	// Both should cover multiple clusters; exact picks may differ.
	cluster := func(idx int) int {
		switch {
		case idx < 6:
			return 0
		case idx < 12:
			return 1
		default:
			return 2
		}
	}
	apClusters := map[int]bool{}
	for _, i := range ap.Indices {
		apClusters[cluster(i)] = true
	}
	if len(apClusters) < 2 {
		t.Fatalf("all-pairs collapsed to one cluster: %v", ap.Indices)
	}
}

func TestCompressEdgeCases(t *testing.T) {
	w := testWorkload(t)
	c := New(DefaultOptions())
	if res := compress(t, c, w, 0); len(res.Indices) != 0 {
		t.Fatal("k=0 should select nothing")
	}
	if res := compress(t, c, w, 1000); len(res.Indices) != w.Len() {
		t.Fatalf("k>n should select all: %d", len(res.Indices))
	}
	empty := &workload.Workload{Catalog: w.Catalog}
	if res := compress(t, c, empty, 5); len(res.Indices) != 0 {
		t.Fatal("empty workload should select nothing")
	}
}

// TestInvalidCostRejected pins the builder's cost validation: a NaN,
// ±Inf or negative cost makes CompressContext (with and without template
// consing) and Incremental.ObserveContext return an error naming the
// lowest bad position, and a failed ObserveContext leaves the pool and
// the seen count as they were.
func TestInvalidCostRejected(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		w := generatorWorkload(t, "tpch", 300)
		const pos = 117
		w.Queries[pos].Cost = bad
		w.Queries[pos+100].Cost = -2 // a later bad cost: the lowest position is named
		wantErr := func(at int) string {
			return fmt.Sprintf("core: query %d: invalid cost %v (must be finite and >= 0)", at, bad)
		}
		for _, cons := range []bool{false, true} {
			opts := DefaultOptions()
			opts.ConsTemplates = cons
			res, err := New(opts).CompressContext(context.Background(), w, 20)
			if err == nil || err.Error() != wantErr(pos) || res != nil {
				t.Fatalf("cost %v, cons %v: result %v, error %v; want error %q", bad, cons, res, err, wantErr(pos))
			}
		}

		ic := NewIncremental(w.Catalog, DefaultOptions(), 8)
		if _, err := ic.ObserveContext(context.Background(), w.Queries[:100]); err != nil {
			t.Fatal(err)
		}
		pool, seen := ic.Pool(), ic.Seen()
		res, err := ic.ObserveContext(context.Background(), w.Queries[100:])
		// The candidate workload is the pool followed by the batch.
		if want := wantErr(pool.Len() + pos - 100); err == nil || err.Error() != want || res != nil {
			t.Fatalf("cost %v: ObserveContext result %v, error %v; want error %q", bad, res, err, want)
		}
		if ic.Pool() != pool || ic.Seen() != seen {
			t.Fatalf("cost %v: a failed ObserveContext changed the pool or seen count (%d → %d)", bad, seen, ic.Seen())
		}
	}
}

func TestCompressDeterministic(t *testing.T) {
	w := testWorkload(t)
	c := New(DefaultOptions())
	a := compress(t, c, w, 5)
	b := compress(t, c, w, 5)
	if fmt.Sprint(a.Indices) != fmt.Sprint(b.Indices) {
		t.Fatalf("non-deterministic selection: %v vs %v", a.Indices, b.Indices)
	}
}

func TestWeightsNormalised(t *testing.T) {
	w := testWorkload(t)
	for _, strat := range []WeighStrategy{
		WeighNone, WeighSelectionBenefit, WeighRecalibrated, WeighTemplateRecalibrated,
	} {
		opts := DefaultOptions()
		opts.Weighing = strat
		res := compress(t, New(opts), w, 4)
		if len(res.Weights) != len(res.Indices) {
			t.Fatalf("strategy %d: weights %d != indices %d", strat, len(res.Weights), len(res.Indices))
		}
		var sum float64
		for _, wt := range res.Weights {
			if wt < 0 {
				t.Fatalf("strategy %d: negative weight", strat)
			}
			sum += wt
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("strategy %d: weights sum to %f", strat, sum)
		}
	}
}

func TestTemplateWeighingPoolsUtility(t *testing.T) {
	// A selected instance representing many same-template instances should
	// get more weight than a singleton.
	cat := testCatalog()
	var sqls []string
	for i := 0; i < 10; i++ { // 10 instances of one template
		sqls = append(sqls, fmt.Sprintf("SELECT o_totalprice FROM orders WHERE o_orderkey = %d", i+1))
	}
	sqls = append(sqls, "SELECT c_custkey FROM customer WHERE c_nationkey = 3") // singleton
	w, err := workload.New(cat, sqls)
	if err != nil {
		t.Fatal(err)
	}
	if err := cost.NewOptimizer(cat).FillCostsCtx(context.Background(), w, 0); err != nil {
		t.Fatal(err)
	}

	res := compress(t, New(DefaultOptions()), w, 2)
	if len(res.Indices) != 2 {
		t.Fatal("need 2 selections")
	}
	var wTemplate, wSingleton float64
	for i, idx := range res.Indices {
		if idx < 10 {
			wTemplate = res.Weights[i]
		} else {
			wSingleton = res.Weights[i]
		}
	}
	if wTemplate == 0 || wSingleton == 0 {
		t.Fatalf("expected one pick per cluster: %v", res.Indices)
	}
	if wTemplate <= wSingleton {
		t.Fatalf("template representative should outweigh singleton: %f <= %f", wTemplate, wSingleton)
	}
}

func TestUpdateStrategies(t *testing.T) {
	w := testWorkload(t)
	states, err := BuildStatesContext(context.Background(), w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sel, other := states[0], states[1] // same template: similarity 1
	u0 := other.Utility

	applyUpdate(sel, other, UpdateNone)
	if other.Utility != u0 {
		t.Fatal("UpdateNone must not change utility")
	}

	applyUpdate(sel, other, UpdateUtilityOnly)
	if other.Utility >= u0 {
		t.Fatal("utility should shrink")
	}
	if other.Vec.Len() != other.OrigVec.Len() {
		t.Fatal("UtilityOnly must not touch features")
	}

	applyUpdate(sel, other, UpdateFeatureRemove)
	if !other.Vec.AllZero() {
		t.Fatalf("identical query should be fully covered: %v", other.Vec)
	}

	s2 := states[2]
	applyUpdate(sel, s2, UpdateWeightSubtract)
	if s2.Vec.Sum() >= s2.OrigVec.Sum() {
		t.Fatal("WeightSubtract should reduce feature mass")
	}
}

func TestFeatureResetKeepsSelecting(t *testing.T) {
	// With only 2 templates, feature-remove exhausts features quickly; the
	// reset (Algorithm 2 line 12) must still let us select k=6 queries.
	cat := testCatalog()
	var sqls []string
	for i := 0; i < 8; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT o_totalprice FROM orders WHERE o_orderkey = %d", i+1))
	}
	for i := 0; i < 8; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT c_custkey FROM customer WHERE c_nationkey = %d", i))
	}
	w, err := workload.New(cat, sqls)
	if err != nil {
		t.Fatal(err)
	}
	if err := cost.NewOptimizer(cat).FillCostsCtx(context.Background(), w, 0); err != nil {
		t.Fatal(err)
	}
	res := compress(t, New(DefaultOptions()), w, 6)
	if len(res.Indices) != 6 {
		t.Fatalf("selected %d, want 6", len(res.Indices))
	}
	seen := map[int]bool{}
	for _, idx := range res.Indices {
		if seen[idx] {
			t.Fatalf("duplicate selection %d", idx)
		}
		seen[idx] = true
	}
}

func TestGreedyMonotoneBenefit(t *testing.T) {
	// The conditional benefit of successive picks should not increase when
	// updates are enabled (submodularity intuition, Theorem 2).
	w := testWorkload(t)
	res := compress(t, New(DefaultOptions()), w, 6)
	for i := 1; i < len(res.SelectionBenefits); i++ {
		if res.SelectionBenefits[i] > res.SelectionBenefits[i-1]+0.3 {
			t.Fatalf("benefit jumped: %v", res.SelectionBenefits)
		}
	}
}

func TestVariantNames(t *testing.T) {
	if New(DefaultOptions()).Name() != "ISUM" {
		t.Fatal("default name")
	}
	if New(ISUMSOptions()).Name() != "ISUM-S" {
		t.Fatal("isum-s name")
	}
	if New(NoTableOptions()).Name() != "ISUM-NoTable" {
		t.Fatal("notable name")
	}
	ap := DefaultOptions()
	ap.Algorithm = AllPairs
	if New(ap).Name() != "ISUM-AllPairs" {
		t.Fatal("allpairs name")
	}
}

func TestExtractorModesMatchOptions(t *testing.T) {
	w := testWorkload(t)
	rule, err := BuildStatesContext(context.Background(), w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	statsOpts := ISUMSOptions()
	stats, err := BuildStatesContext(context.Background(), w, statsOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Feature supports agree, weights differ in general.
	if rule[12].Vec.Len() != stats[12].Vec.Len() {
		t.Fatalf("supports differ: %v vs %v", rule[12].Vec, stats[12].Vec)
	}
	_ = features.StatsBased
}

func TestCompressorOptionsAccessor(t *testing.T) {
	opts := ISUMSOptions()
	c := New(opts)
	if c.Options().Utility != UtilityCostSelectivity {
		t.Fatal("options accessor broken")
	}
}
