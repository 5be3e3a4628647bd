package cost

import (
	"math"
	"testing"

	"isum/internal/catalog"
	"isum/internal/index"
	"isum/internal/workload"
)

func TestRowsAfterFloor(t *testing.T) {
	if rowsAfter(1000, 0.5) != 500 {
		t.Fatal("basic scaling")
	}
	if rowsAfter(10, 1e-9) != 1 {
		t.Fatal("floor of one row")
	}
}

func TestScanCostComponents(t *testing.T) {
	tb := catalog.NewTable("t", 1000000)
	tb.AddColumn(&catalog.Column{Name: "x", Type: catalog.TypeInt})
	c := DefaultParams().scanCost(tb)
	if c < float64(tb.PageCount()) {
		t.Fatalf("scan cost %f below I/O floor %d", c, tb.PageCount())
	}
}

func TestSortCostMonotoneAndSpill(t *testing.T) {
	par := DefaultParams()
	if par.sortCost(1, 100) != 0 {
		t.Fatal("single row needs no sort")
	}
	small := par.sortCost(1000, 100)
	big := par.sortCost(100000, 100)
	if big <= small {
		t.Fatal("sort cost must grow")
	}
	// Past the memory budget, spill I/O kicks in: cost should grow faster
	// than n log n alone.
	inMem := par.sortCost(100_000, 100)
	spill := par.sortCost(10_000_000, 100)
	nlogn := spill / inMem
	if nlogn < 100*math.Log2(10_000_000)/math.Log2(100_000)*0.9 {
		t.Fatalf("spill not reflected: ratio %f", nlogn)
	}
}

func TestAggCosts(t *testing.T) {
	if DefaultParams().hashAggCost(1000, 10) <= DefaultParams().streamAggCost(1000) {
		t.Fatal("hash agg should cost more than stream agg")
	}
}

func TestOrderCovers(t *testing.T) {
	order := []string{"a", "b", "c"}
	cols := func(names ...string) []workload.ColumnUse {
		out := make([]workload.ColumnUse, len(names))
		for i, n := range names {
			out[i] = workload.ColumnUse{Table: "t", Column: n}
		}
		return out
	}
	if !orderCovers(order, cols("a")) {
		t.Fatal("prefix single")
	}
	if !orderCovers(order, cols("b", "a")) {
		t.Fatal("prefix permutation")
	}
	if orderCovers(order, cols("c")) {
		t.Fatal("non-prefix must fail")
	}
	if orderCovers(order, cols("a", "b", "c", "d")) {
		t.Fatal("too many columns")
	}
	if orderCovers(order, nil) {
		t.Fatal("empty want must fail")
	}
	if orderCovers(nil, cols("a")) {
		t.Fatal("no order must fail")
	}
}

func TestLeafPagesNarrowerIndexFewerPages(t *testing.T) {
	tb := catalog.NewTable("t", 1000000)
	tb.AddColumn(&catalog.Column{Name: "a", Type: catalog.TypeInt})
	tb.AddColumn(&catalog.Column{Name: "wide", Type: catalog.TypeString, AvgWidth: 100})
	narrow := leafPages(tb, index.New("t", "a"))
	wide := leafPages(tb, index.New("t", "a").WithIncludes("wide"))
	if wide <= narrow {
		t.Fatalf("wider index should need more pages: %f vs %f", wide, narrow)
	}
	if narrow < 1 {
		t.Fatal("page floor")
	}
}

func TestEstimateGroups(t *testing.T) {
	cat := testCatalog()
	p := &blockPlanner{cat: cat, par: DefaultParams(), blk: &workload.Block{
		GroupBy: []workload.ColumnUse{
			{Table: "customer", Column: "c_nationkey"},
		},
	}}
	g := p.estimateGroups(1e6)
	if g != 25 {
		t.Fatalf("groups = %f, want 25", g)
	}
	// Product capped by rows.
	p.blk.GroupBy = append(p.blk.GroupBy, workload.ColumnUse{Table: "customer", Column: "c_custkey"})
	if got := p.estimateGroups(1000); got != 1000 {
		t.Fatalf("groups should cap at rows: %f", got)
	}
	// Unknown column falls back.
	p.blk.GroupBy = []workload.ColumnUse{{Table: "customer", Column: "zzz"}}
	if got := p.estimateGroups(1e6); got != 100 {
		t.Fatalf("fallback groups = %f", got)
	}
}

func TestLocalSelectivityFloor(t *testing.T) {
	fs := []workload.FilterPredicate{
		{Selectivity: 1e-6}, {Selectivity: 1e-6},
	}
	if got := localSelectivity(fs); got < 1e-9 {
		t.Fatalf("selectivity floor violated: %g", got)
	}
	if localSelectivity(nil) != 1 {
		t.Fatal("no filters should give 1")
	}
}

func TestNeededColumnsSelectStar(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	q := mustQuery(t, cat, "SELECT * FROM customer WHERE c_custkey = 5")
	blk := q.Info.Blocks[0]
	p := &blockPlanner{cat: cat, cfg: index.NewConfiguration(), blk: blk, par: DefaultParams()}
	p.groupFilters()
	_, needAll := p.neededColumns("customer")
	if !needAll {
		t.Fatal("SELECT * should need all columns")
	}
	_ = o
}

func TestAccessPathPrefersBestIndex(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	q := mustQuery(t, cat, "SELECT c_nationkey FROM customer WHERE c_custkey = 5")
	// Among a useless index and a perfect one, the perfect one must win.
	useless := index.New("customer", "c_mktsegment")
	perfect := index.New("customer", "c_custkey").WithIncludes("c_nationkey")
	both := index.NewConfiguration(useless, perfect)
	only := index.NewConfiguration(perfect)
	if math.Abs(o.Cost(q, both)-o.Cost(q, only)) > 1e-9 {
		t.Fatal("best index choice should make useless index irrelevant")
	}
}

func TestIrrelevantIndexNoEffect(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	q := mustQuery(t, cat, "SELECT c_nationkey FROM customer WHERE c_custkey = 5")
	base := o.Cost(q, nil)
	other := o.Cost(q, index.NewConfiguration(index.New("lineitem", "l_orderkey")))
	if base != other {
		t.Fatalf("index on unrelated table changed cost: %f vs %f", base, other)
	}
}

// TestParamsChangePlanChoice proves the cost GUCs bite: with free random
// I/O, a non-covering seek wins at far lower selectivity thresholds than
// with expensive random I/O.
func TestParamsChangePlanChoice(t *testing.T) {
	cat := testCatalog()
	// ~2% selectivity seek with lookups.
	sql := "SELECT l_extendedprice FROM lineitem WHERE l_quantity = 17"
	cfg := index.NewConfiguration(index.New("lineitem", "l_quantity"))

	cheapRand := DefaultParams()
	cheapRand.RandPage = 0.01
	expensiveRand := DefaultParams()
	expensiveRand.RandPage = 50

	oCheap := NewOptimizerWithTelemetry(cat, cheapRand, nil)
	oDear := NewOptimizerWithTelemetry(cat, expensiveRand, nil)
	qc := mustQuery(t, cat, sql)

	cheapGain := oCheap.Cost(qc, nil) - oCheap.Cost(qc, cfg)
	dearGain := oDear.Cost(qc, nil) - oDear.Cost(qc, cfg)
	if cheapGain <= 0 {
		t.Fatal("cheap random I/O should make the seek attractive")
	}
	if dearGain >= cheapGain {
		t.Fatalf("expensive random I/O should reduce the seek's gain: %f >= %f", dearGain, cheapGain)
	}
	if got := oDear.Params().RandPage; got != 50 {
		t.Fatalf("params accessor = %f", got)
	}
}
