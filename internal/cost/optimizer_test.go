package cost

import (
	"context"
	"math"
	"slices"
	"testing"

	"isum/internal/catalog"
	"isum/internal/index"
	"isum/internal/workload"
)

// testCatalog builds a TPC-H-flavoured catalog with real histograms so seek
// selectivities are meaningful.
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

func mustQuery(t *testing.T, cat *catalog.Catalog, sql string) *workload.Query {
	t.Helper()
	q, err := workload.NewQuery(cat, 0, sql)
	if err != nil {
		t.Fatalf("parse/analyse %q: %v", sql, err)
	}
	return q
}

func TestScanCostBaseline(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	q := mustQuery(t, cat, "SELECT l_comment FROM lineitem")
	c := o.Cost(q, nil)
	if c <= 0 {
		t.Fatalf("cost = %f", c)
	}
	// Full scan should cost at least the page count.
	if c < float64(cat.Table("lineitem").PageCount()) {
		t.Fatalf("scan cost %f below page count %d", c, cat.Table("lineitem").PageCount())
	}
}

func TestSelectiveSeekBeatsScans(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	q := mustQuery(t, cat, "SELECT l_comment FROM lineitem WHERE l_orderkey = 12345")
	base := o.Cost(q, nil)
	withIx := o.Cost(q, index.NewConfiguration(index.New("lineitem", "l_orderkey")))
	if withIx >= base {
		t.Fatalf("selective seek should beat scan: %f >= %f", withIx, base)
	}
	if withIx > base*0.01 {
		t.Fatalf("point seek should be orders of magnitude cheaper: %f vs %f", withIx, base)
	}
}

func TestUnselectivePredicateKeepsScan(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	// ~98% of rows match: lookups would dominate, scan must win.
	q := mustQuery(t, cat, "SELECT l_comment FROM lineitem WHERE l_quantity > 1")
	base := o.Cost(q, nil)
	withIx := o.Cost(q, index.NewConfiguration(index.New("lineitem", "l_quantity")))
	if withIx < base*0.9 {
		t.Fatalf("unselective index should not help much: %f vs %f", withIx, base)
	}
}

func TestCoveringIndexBeatsNonCovering(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	// Moderate selectivity (~2%): non-covering lookups are expensive.
	q := mustQuery(t, cat, "SELECT l_extendedprice FROM lineitem WHERE l_quantity = 17")
	plain := o.Cost(q, index.NewConfiguration(index.New("lineitem", "l_quantity")))
	covering := o.Cost(q, index.NewConfiguration(
		index.New("lineitem", "l_quantity").WithIncludes("l_extendedprice")))
	if covering >= plain {
		t.Fatalf("covering should beat non-covering: %f >= %f", covering, plain)
	}
}

func TestMultiColumnSeek(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	q := mustQuery(t, cat, "SELECT l_extendedprice FROM lineitem WHERE l_suppkey = 77 AND l_shipdate >= '1995-01-01' AND l_shipdate < '1995-04-01'")
	single := o.Cost(q, index.NewConfiguration(index.New("lineitem", "l_suppkey")))
	multi := o.Cost(q, index.NewConfiguration(index.New("lineitem", "l_suppkey", "l_shipdate")))
	if multi >= single {
		t.Fatalf("two-column seek should beat one-column: %f >= %f", multi, single)
	}
}

func TestRangeTerminatesSeekPrefix(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	q := mustQuery(t, cat, "SELECT l_extendedprice FROM lineitem WHERE l_shipdate > '1998-06-01' AND l_suppkey = 77")
	// Range on the leading key blocks the equality behind it...
	rangeFirst := o.Cost(q, index.NewConfiguration(index.New("lineitem", "l_shipdate", "l_suppkey")))
	// ...while equality leading is fully seekable.
	eqFirst := o.Cost(q, index.NewConfiguration(index.New("lineitem", "l_suppkey", "l_shipdate")))
	if eqFirst >= rangeFirst {
		t.Fatalf("equality-leading index should win: %f >= %f", eqFirst, rangeFirst)
	}
}

func TestJoinIndexHelps(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	q := mustQuery(t, cat, `SELECT o_totalprice FROM customer, orders
		WHERE c_custkey = o_custkey AND c_nationkey = 7 AND c_mktsegment = 'BUILDING'`)
	base := o.Cost(q, nil)
	// A covering join index enables a cheap index-nested-loop plan. (A bare,
	// non-covering join index realistically loses to hash join at this
	// cardinality because of random lookups.)
	covering := index.New("orders", "o_custkey").WithIncludes("o_totalprice")
	withJoinIx := o.Cost(q, index.NewConfiguration(covering))
	if withJoinIx >= base*0.8 {
		t.Fatalf("covering join index should help substantially: %f >= %f", withJoinIx, base)
	}
	bare := o.Cost(q, index.NewConfiguration(index.New("orders", "o_custkey")))
	if withJoinIx >= bare {
		t.Fatalf("covering should beat bare join index: %f >= %f", withJoinIx, bare)
	}
}

func TestGroupByIndexEnablesStreamAgg(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	q := mustQuery(t, cat, "SELECT l_suppkey, SUM(l_extendedprice) FROM lineitem GROUP BY l_suppkey")
	base := o.Cost(q, nil)
	ix := index.New("lineitem", "l_suppkey").WithIncludes("l_extendedprice")
	withIx := o.Cost(q, index.NewConfiguration(ix))
	if withIx >= base {
		t.Fatalf("covering group-by index should help: %f >= %f", withIx, base)
	}
}

func TestOrderByIndexAvoidsSort(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	q := mustQuery(t, cat, "SELECT o_orderdate FROM orders WHERE o_totalprice > 595000 ORDER BY o_orderdate")
	// Covering index on the sort column: scan in order, no sort.
	sortIx := index.New("orders", "o_orderdate").WithIncludes("o_totalprice")
	filterIx := index.New("orders", "o_totalprice").WithIncludes("o_orderdate")
	cSort := o.Cost(q, index.NewConfiguration(sortIx))
	cFilter := o.Cost(q, index.NewConfiguration(filterIx))
	base := o.Cost(q, nil)
	if cSort >= base && cFilter >= base {
		t.Fatalf("some index should help: base=%f sort=%f filter=%f", base, cSort, cFilter)
	}
}

func TestMoreIndexesNeverIncreaseCost(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	sqls := []string{
		"SELECT l_comment FROM lineitem WHERE l_orderkey = 5",
		"SELECT o_totalprice FROM customer, orders WHERE c_custkey = o_custkey AND c_nationkey = 3",
		"SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > '1998-01-01' GROUP BY l_suppkey ORDER BY l_suppkey",
	}
	cfgs := []*index.Configuration{
		index.NewConfiguration(),
		index.NewConfiguration(index.New("lineitem", "l_orderkey")),
		index.NewConfiguration(index.New("lineitem", "l_orderkey"), index.New("orders", "o_custkey")),
		index.NewConfiguration(index.New("lineitem", "l_orderkey"), index.New("orders", "o_custkey"),
			index.New("lineitem", "l_shipdate", "l_suppkey"), index.New("customer", "c_nationkey")),
	}
	for _, sql := range sqls {
		q := mustQuery(t, cat, sql)
		prev := o.Cost(q, cfgs[0])
		for _, cfg := range cfgs[1:] {
			c := o.Cost(q, cfg)
			if c > prev+1e-9 {
				t.Fatalf("adding indexes increased cost for %q: %f > %f", sql, c, prev)
			}
			prev = c
		}
	}
}

func TestSubqueryBlocksCosted(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	outer := mustQuery(t, cat, "SELECT o_totalprice FROM orders WHERE o_totalprice > 590000")
	withSub := mustQuery(t, cat, `SELECT o_totalprice FROM orders WHERE o_totalprice > 590000
		AND EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey)`)
	if o.Cost(withSub, nil) <= o.Cost(outer, nil) {
		t.Fatal("subquery block should add cost")
	}
}

func TestWorkloadCostWeights(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	w, err := workload.New(cat, []string{
		"SELECT c_nationkey FROM customer WHERE c_custkey = 5",
		"SELECT c_nationkey FROM customer WHERE c_custkey = 6",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := o.WorkloadCostCtx(ctx, w, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Queries[0].Weight = 3
	weighted, err := o.WorkloadCostCtx(ctx, w, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if weighted <= base {
		t.Fatal("weight should scale workload cost")
	}
}

func TestFillCosts(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	w, _ := workload.New(cat, []string{"SELECT c_nationkey FROM customer"})
	if err := o.FillCostsCtx(context.Background(), w, 0); err != nil {
		t.Fatal(err)
	}
	if w.Queries[0].Cost <= 0 {
		t.Fatal("FillCostsCtx did not set cost")
	}
}

// TestCallCountersAndCache: every what-if call is computed from the
// query's compiled plan, none answered from a result cache, so plans equal
// calls; a repeat call and a probe that adds an index on a table the query
// does not read return bitwise the first call's cost.
func TestCallCountersAndCache(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	q := mustQuery(t, cat, "SELECT c_nationkey FROM customer WHERE c_custkey = 5")
	cfgA := index.NewConfiguration(index.New("customer", "c_custkey"))
	// Same config extended with an index on a table q does not read.
	cfgB := cfgA.With(index.New("orders", "o_custkey"))

	first := o.Cost(q, cfgA)
	for name, got := range map[string]float64{
		"irrelevant-index probe": o.Cost(q, cfgB),
		"repeat call":            o.Cost(q, cfgA),
	} {
		if math.Float64bits(got) != math.Float64bits(first) {
			t.Errorf("%s costs %v, first call %v", name, got, first)
		}
	}
	if o.Calls() != 3 || o.Plans() != o.Calls() {
		t.Fatalf("calls = %d, plans = %d: want 3 and 3", o.Calls(), o.Plans())
	}
	if hits, misses := o.CacheStats(); hits != 0 || misses != o.Plans() {
		t.Fatalf("CacheStats() = (%d, %d), want (0, %d)", hits, misses, o.Plans())
	}
	o.ResetCounters()
	if o.Calls() != 0 || o.Plans() != 0 {
		t.Fatal("reset failed")
	}
}

// TestSkeletonNeededColumns: the skeleton compiles, per table occurrence,
// the lower-cased columns its block uses anywhere, each once and sorted,
// or needAll for SELECT *.
func TestSkeletonNeededColumns(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	for _, tc := range []struct {
		sql     string
		want    map[string][]string // by table; nil: needs every column
		wantAll bool
	}{
		{
			sql: "SELECT o_totalprice, c_nationkey FROM orders, customer " +
				"WHERE o_custkey = c_custkey AND c_nationkey = 3 ORDER BY o_totalprice",
			want: map[string][]string{
				"orders":   {"o_custkey", "o_totalprice"},
				"customer": {"c_custkey", "c_nationkey"},
			},
		},
		{sql: "SELECT * FROM customer WHERE c_custkey = 5", wantAll: true},
	} {
		s := o.skeletonFor(mustQuery(t, cat, tc.sql))
		if len(s.occs) == 0 {
			t.Fatalf("%s: no occurrences compiled", tc.sql)
		}
		for _, oc := range s.occs {
			if oc.needAll != tc.wantAll {
				t.Errorf("%s: %s needAll = %v, want %v", tc.sql, oc.table, oc.needAll, tc.wantAll)
			}
			if tc.wantAll {
				continue
			}
			if want := tc.want[oc.table]; !slices.Equal(oc.needCols, want) {
				t.Errorf("%s: %s needs %q, want %q", tc.sql, oc.table, oc.needCols, want)
			}
		}
	}
}

func TestConstantBlockCost(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	q := mustQuery(t, cat, "SELECT 1")
	if c := o.Cost(q, nil); c <= 0 {
		t.Fatalf("constant query cost = %f", c)
	}
}

func TestCrossJoinCosted(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	q := mustQuery(t, cat, "SELECT c_nationkey FROM customer, orders WHERE c_nationkey = 1")
	cj := o.Cost(q, nil)
	q2 := mustQuery(t, cat, "SELECT c_nationkey FROM customer WHERE c_nationkey = 1")
	if cj <= o.Cost(q2, nil) {
		t.Fatal("cross join should cost more than single table")
	}
}

func TestOptimizerCatalogAccessor(t *testing.T) {
	cat := testCatalog()
	if NewOptimizer(cat).Catalog() != cat {
		t.Fatal("catalog accessor broken")
	}
}

func TestLikePrefixSeekable(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	// A prefix LIKE on a high-cardinality string column should allow a seek
	// (the analyzer estimates ~3% selectivity for prefix patterns).
	q := mustQuery(t, cat, "SELECT l_comment FROM lineitem WHERE l_comment LIKE 'abc%'")
	base := o.Cost(q, nil)
	withIx := o.Cost(q, index.NewConfiguration(index.New("lineitem", "l_comment")))
	if withIx >= base {
		t.Fatalf("prefix LIKE should be seekable: %f >= %f", withIx, base)
	}
}

func TestInListSeekable(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	q := mustQuery(t, cat, "SELECT l_comment FROM lineitem WHERE l_suppkey IN (1, 2, 3)")
	base := o.Cost(q, nil)
	withIx := o.Cost(q, index.NewConfiguration(index.New("lineitem", "l_suppkey")))
	if withIx >= base*0.5 {
		t.Fatalf("IN list should be seekable: %f vs %f", withIx, base)
	}
}
