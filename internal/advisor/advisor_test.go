package advisor

import (
	"context"
	"strings"
	"testing"
	"time"

	"isum/internal/catalog"
	"isum/internal/cost"
	"isum/internal/index"
	"isum/internal/workload"
)

// testCatalog builds a TPC-H-flavoured catalog with histograms.
func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	dmin, _ := workload.ParseDateDays("1992-01-01")
	dmax, _ := workload.ParseDateDays("1998-12-31")

	li := catalog.NewTable("lineitem", 6000000)
	li.AddColumn(&catalog.Column{Name: "l_orderkey", Type: catalog.TypeInt, DistinctCount: 1500000, Min: 1, Max: 6000000,
		Hist: catalog.SyntheticHistogram(1, 6000000, 6000000, 1500000, 50, 0)})
	li.AddColumn(&catalog.Column{Name: "l_suppkey", Type: catalog.TypeInt, DistinctCount: 10000, Min: 1, Max: 10000,
		Hist: catalog.SyntheticHistogram(1, 10000, 6000000, 10000, 50, 0)})
	li.AddColumn(&catalog.Column{Name: "l_quantity", Type: catalog.TypeDecimal, DistinctCount: 50, Min: 1, Max: 50,
		Hist: catalog.SyntheticHistogram(1, 50, 6000000, 50, 25, 0)})
	li.AddColumn(&catalog.Column{Name: "l_extendedprice", Type: catalog.TypeDecimal, DistinctCount: 1000000, Min: 900, Max: 105000,
		Hist: catalog.SyntheticHistogram(900, 105000, 6000000, 1000000, 50, 0)})
	li.AddColumn(&catalog.Column{Name: "l_shipdate", Type: catalog.TypeDate, DistinctCount: 2526, Min: dmin, Max: dmax,
		Hist: catalog.SyntheticHistogram(dmin, dmax, 6000000, 2526, 50, 0)})
	li.AddColumn(&catalog.Column{Name: "l_comment", Type: catalog.TypeString, DistinctCount: 4500000, AvgWidth: 27})
	cat.AddTable(li)

	o := catalog.NewTable("orders", 1500000)
	o.AddColumn(&catalog.Column{Name: "o_orderkey", Type: catalog.TypeInt, DistinctCount: 1500000, Min: 1, Max: 6000000,
		Hist: catalog.SyntheticHistogram(1, 6000000, 1500000, 1500000, 50, 0)})
	o.AddColumn(&catalog.Column{Name: "o_custkey", Type: catalog.TypeInt, DistinctCount: 100000, Min: 1, Max: 150000,
		Hist: catalog.SyntheticHistogram(1, 150000, 1500000, 100000, 50, 0)})
	o.AddColumn(&catalog.Column{Name: "o_orderdate", Type: catalog.TypeDate, DistinctCount: 2406, Min: dmin, Max: dmax,
		Hist: catalog.SyntheticHistogram(dmin, dmax, 1500000, 2406, 50, 0)})
	o.AddColumn(&catalog.Column{Name: "o_totalprice", Type: catalog.TypeDecimal, DistinctCount: 1400000, Min: 800, Max: 600000,
		Hist: catalog.SyntheticHistogram(800, 600000, 1500000, 1400000, 50, 0)})
	cat.AddTable(o)

	c := catalog.NewTable("customer", 150000)
	c.AddColumn(&catalog.Column{Name: "c_custkey", Type: catalog.TypeInt, DistinctCount: 150000, Min: 1, Max: 150000,
		Hist: catalog.SyntheticHistogram(1, 150000, 150000, 150000, 20, 0)})
	c.AddColumn(&catalog.Column{Name: "c_mktsegment", Type: catalog.TypeString, DistinctCount: 5})
	c.AddColumn(&catalog.Column{Name: "c_nationkey", Type: catalog.TypeInt, DistinctCount: 25, Min: 0, Max: 24,
		Hist: catalog.SyntheticHistogram(0, 24, 150000, 25, 25, 0)})
	cat.AddTable(c)
	return cat
}

func testWorkload(t *testing.T, cat *catalog.Catalog) *workload.Workload {
	t.Helper()
	sqls := []string{
		"SELECT l_extendedprice FROM lineitem WHERE l_orderkey = 42",
		"SELECT l_extendedprice FROM lineitem WHERE l_suppkey = 77 AND l_shipdate >= '1995-01-01' AND l_shipdate < '1995-02-01'",
		"SELECT o_totalprice FROM customer, orders WHERE c_custkey = o_custkey AND c_nationkey = 7",
		"SELECT l_suppkey, SUM(l_extendedprice) FROM lineitem WHERE l_shipdate > '1998-09-01' GROUP BY l_suppkey",
		"SELECT o_orderdate FROM orders WHERE o_totalprice > 595000 ORDER BY o_orderdate",
	}
	w, err := workload.New(cat, sqls)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// tune runs a.TuneContext on a background context, failing the test on
// an error.
func tune(t testing.TB, a *Advisor, w *workload.Workload) *Result {
	t.Helper()
	res, err := a.TuneContext(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSyntacticCandidates(t *testing.T) {
	cat := testCatalog()
	a := New(cost.NewOptimizer(cat), DefaultOptions())
	q, err := workload.NewQuery(cat, 0,
		"SELECT l_extendedprice FROM lineitem WHERE l_suppkey = 77 AND l_shipdate > '1998-01-01' ORDER BY l_shipdate")
	if err != nil {
		t.Fatal(err)
	}
	cands := a.syntacticCandidates(q)
	if len(cands) < 4 {
		t.Fatalf("too few candidates: %v", cands)
	}
	var haveMulti, haveCovering bool
	for _, ix := range cands {
		if len(ix.Keys) >= 2 {
			haveMulti = true
		}
		if len(ix.Includes) > 0 {
			haveCovering = true
		}
		if len(ix.Keys) > 3 {
			t.Fatalf("key width exceeded: %v", ix)
		}
	}
	if !haveMulti || !haveCovering {
		t.Fatalf("expected multi-column and covering candidates: %v", cands)
	}
}

func TestSelectStarSuppressesCovering(t *testing.T) {
	cat := testCatalog()
	a := New(cost.NewOptimizer(cat), DefaultOptions())
	q, err := workload.NewQuery(cat, 0, "SELECT * FROM orders WHERE o_custkey = 42")
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range a.syntacticCandidates(q) {
		if len(ix.Includes) > 0 {
			t.Fatalf("SELECT * query should not get covering candidates: %v", ix)
		}
	}
}

func TestTuneImprovesWorkload(t *testing.T) {
	cat := testCatalog()
	o := cost.NewOptimizer(cat)
	w := testWorkload(t, cat)
	if err := o.FillCostsCtx(context.Background(), w, 0); err != nil {
		t.Fatal(err)
	}

	a := New(o, DefaultOptions())
	res := tune(t, a, w)
	if res.Config.Len() == 0 {
		t.Fatal("no indexes recommended")
	}
	if res.FinalCost >= res.InitialCost {
		t.Fatalf("tuning did not improve: %f >= %f", res.FinalCost, res.InitialCost)
	}
	if res.ImprovementPercent() < 20 {
		t.Fatalf("expected substantial improvement, got %.1f%%", res.ImprovementPercent())
	}
	if res.OptimizerCalls == 0 || res.ConfigsExplored == 0 {
		t.Fatal("counters not populated")
	}
}

func TestMaxIndexesRespected(t *testing.T) {
	cat := testCatalog()
	o := cost.NewOptimizer(cat)
	w := testWorkload(t, cat)
	opts := DefaultOptions()
	opts.MaxIndexes = 2
	res := tune(t, New(o, opts), w)
	if res.Config.Len() > 2 {
		t.Fatalf("config size %d exceeds limit", res.Config.Len())
	}
}

func TestStorageBudgetRespected(t *testing.T) {
	cat := testCatalog()
	o := cost.NewOptimizer(cat)
	w := testWorkload(t, cat)
	budget := int64(100 << 20) // 100 MiB: tight for 6M-row tables
	opts := DefaultOptions()
	opts.StorageBudget = budget
	res := tune(t, New(o, opts), w)
	if got := res.Config.SizeBytes(cat); got > budget {
		t.Fatalf("config size %d exceeds budget %d", got, budget)
	}
	// A looser budget should never do worse.
	opts2 := DefaultOptions()
	opts2.StorageBudget = budget * 10
	res2 := tune(t, New(o, opts2), w)
	if res2.FinalCost > res.FinalCost+1e-6 {
		t.Fatalf("bigger budget should not hurt: %f > %f", res2.FinalCost, res.FinalCost)
	}
}

func TestWeightsSteerTuning(t *testing.T) {
	cat := testCatalog()
	o := cost.NewOptimizer(cat)
	w, err := workload.New(cat, []string{
		"SELECT l_extendedprice FROM lineitem WHERE l_orderkey = 42",
		"SELECT o_totalprice FROM orders WHERE o_custkey = 99",
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxIndexes = 1

	// Heavily weight the second query: the single index must target orders.
	w.Queries[1].Weight = 10000
	res := tune(t, New(o, opts), w)
	if res.Config.Len() != 1 {
		t.Fatalf("config = %v", res.Config.Indexes())
	}
	if got := res.Config.Indexes()[0].Table; !strings.EqualFold(got, "orders") {
		t.Fatalf("weighted tuning picked %s, want orders", got)
	}
}

func TestMergedCandidates(t *testing.T) {
	a := New(cost.NewOptimizer(testCatalog()), DefaultOptions())
	in := []scored{
		{ix: index.New("lineitem", "l_suppkey").WithIncludes("l_extendedprice"), benefit: 10},
		{ix: index.New("lineitem", "l_suppkey", "l_shipdate"), benefit: 8},
	}
	out := a.addMerged(in)
	if len(out) <= len(in) {
		t.Fatal("merge produced nothing")
	}
	var found bool
	for _, s := range out {
		if s.ix.HasKeyPrefix([]string{"l_suppkey", "l_shipdate"}) && s.ix.Covers([]string{"l_extendedprice"}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected merged covering index, got %+v", out)
	}
}

func TestMergeIndexLimits(t *testing.T) {
	A := index.New("t", "a", "b", "c")
	B := index.New("t", "a", "d")
	if mergeIndexes(A, B, 3, 8) != nil {
		t.Fatal("merge should respect key cap")
	}
	if m := mergeIndexes(A, B, 4, 8); m == nil || len(m.Keys) != 4 {
		t.Fatalf("merge = %v", m)
	}
}

func TestDexterModeSimplerAndWeaker(t *testing.T) {
	cat := testCatalog()
	o := cost.NewOptimizer(cat)
	w := testWorkload(t, cat)

	dta := tune(t, New(o, DefaultOptions()), w)
	dex := tune(t, New(o, DexterOptions()), w)
	if dex.ImprovementPercent() > dta.ImprovementPercent()+1e-6 {
		t.Fatalf("DEXTER should not beat DTA: %.1f%% > %.1f%%",
			dex.ImprovementPercent(), dta.ImprovementPercent())
	}
	for _, ix := range dex.Config.Indexes() {
		if len(ix.Includes) > 0 {
			t.Fatalf("DEXTER mode must not emit covering indexes: %v", ix)
		}
		if len(ix.Keys) > 2 {
			t.Fatalf("DEXTER mode key cap exceeded: %v", ix)
		}
	}
}

func TestEvaluateImprovement(t *testing.T) {
	cat := testCatalog()
	o := cost.NewOptimizer(cat)
	w := testWorkload(t, cat)
	res := tune(t, New(o, DefaultOptions()), w)
	pct, base, final, err := EvaluateImprovementContext(context.Background(), o, w, res.Config, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pct <= 0 || base <= final {
		t.Fatalf("pct=%f base=%f final=%f", pct, base, final)
	}
	zero, _, _, err := EvaluateImprovementContext(context.Background(), o, w, index.NewConfiguration(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if zero != 0 {
		t.Fatalf("empty config improvement = %f", zero)
	}
}

func TestCompressedTuningTransfersToFullWorkload(t *testing.T) {
	// The paper's core premise: tuning a well-chosen subset yields indexes
	// that improve the full workload.
	cat := testCatalog()
	o := cost.NewOptimizer(cat)
	w := testWorkload(t, cat)
	if err := o.FillCostsCtx(context.Background(), w, 0); err != nil {
		t.Fatal(err)
	}

	sub := w.WeightedSubset([]int{0, 2}, []float64{1, 1})
	res := tune(t, New(o, DefaultOptions()), sub)
	pct, _, _, err := EvaluateImprovementContext(context.Background(), o, w, res.Config, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pct <= 0 {
		t.Fatalf("compressed tuning gave no improvement on full workload: %f", pct)
	}
}

func TestTimeBudgetAnytime(t *testing.T) {
	cat := testCatalog()
	o := cost.NewOptimizer(cat)
	w := testWorkload(t, cat)

	// A zero-ish budget still returns a valid (possibly empty) result fast.
	opts := DefaultOptions()
	opts.TimeBudget = time.Nanosecond
	res := tune(t, New(o, opts), w)
	if res.Config == nil {
		t.Fatal("anytime tuning must return a configuration")
	}
	if res.FinalCost > res.InitialCost+1e-9 {
		t.Fatal("anytime tuning must not regress")
	}

	// A generous budget matches unbudgeted tuning.
	opts.TimeBudget = time.Minute
	budgeted := tune(t, New(o, opts), w)
	free := tune(t, New(o, DefaultOptions()), w)
	if budgeted.Config.Len() != free.Config.Len() {
		t.Fatalf("generous budget should match unbudgeted: %d vs %d",
			budgeted.Config.Len(), free.Config.Len())
	}
}
