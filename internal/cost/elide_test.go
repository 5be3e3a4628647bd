package cost

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"isum/internal/catalog"
	"isum/internal/index"
	"isum/internal/workload"
)

// sleepInjector injects pure latency into every plan attempt, keeping the
// leader in flight long enough for waiters to pile onto the flight.
type sleepInjector struct{ d time.Duration }

func (s sleepInjector) PlanFault(string, string, int) error {
	time.Sleep(s.d)
	return nil
}

// elideFixture is the shared workload/index pool for the bound tests and
// FuzzCostBounds: a mix of scans, seeks, joins, aggregates, and sorts over
// testCatalog, plus candidate indexes on every table (including ones
// irrelevant to most queries).
type elideFixture struct {
	cat  *catalog.Catalog
	o    *Optimizer
	qs   []*workload.Query
	pool []index.Index
}

var elideFix struct {
	once sync.Once
	fix  *elideFixture
	err  error
}

func loadElideFixture(t testing.TB) *elideFixture {
	t.Helper()
	elideFix.once.Do(func() {
		cat := testCatalog()
		sqls := []string{
			"SELECT l_comment FROM lineitem",
			"SELECT l_extendedprice FROM lineitem WHERE l_orderkey = 42",
			"SELECT l_extendedprice FROM lineitem WHERE l_suppkey = 77 AND l_shipdate > '1998-01-01' ORDER BY l_shipdate",
			"SELECT l_suppkey, SUM(l_extendedprice) FROM lineitem WHERE l_shipdate > '1998-09-01' GROUP BY l_suppkey",
			"SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > '1998-01-01' GROUP BY l_suppkey ORDER BY l_suppkey",
			"SELECT o_orderdate FROM orders WHERE o_totalprice > 595000 ORDER BY o_orderdate",
			"SELECT o_totalprice FROM customer, orders WHERE c_custkey = o_custkey AND c_nationkey = 7",
			"SELECT SUM(l_extendedprice) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND o_orderdate > '1998-06-01'",
			"SELECT c_mktsegment, COUNT(*) FROM customer GROUP BY c_mktsegment",
		}
		fix := &elideFixture{cat: cat, o: NewOptimizer(cat)}
		for i, sql := range sqls {
			q, err := workload.NewQuery(cat, i, sql)
			if err != nil {
				elideFix.err = err
				return
			}
			fix.qs = append(fix.qs, q)
		}
		fix.pool = []index.Index{
			index.New("lineitem", "l_orderkey"),
			index.New("lineitem", "l_suppkey", "l_shipdate"),
			index.New("lineitem", "l_shipdate").WithIncludes("l_extendedprice", "l_suppkey"),
			index.New("orders", "o_custkey"),
			index.New("orders", "o_orderdate"),
			index.New("orders", "o_orderkey", "o_totalprice"),
			index.New("customer", "c_custkey"),
			index.New("customer", "c_nationkey"),
		}
		// Prime the memo exactly as a tune does: base and single-index
		// atomic costs for every query, then the union lower bound.
		union := index.NewConfiguration(fix.pool...)
		for _, q := range fix.qs {
			fix.o.Cost(q, nil)
			for _, ix := range fix.pool {
				fix.o.Cost(q, index.NewConfiguration(ix))
			}
			if err := fix.o.PrimeUnionBound(context.Background(), q, union); err != nil {
				elideFix.err = err
				return
			}
		}
		elideFix.fix = fix
	})
	if elideFix.err != nil {
		t.Fatalf("elide fixture: %v", elideFix.err)
	}
	return elideFix.fix
}

// checkBounds asserts the elision soundness invariant for one
// (query, configuration) pair: lower ≤ true what-if cost ≤ every member
// upper bound, and the structural floor holds when the configuration
// lives on a single table.
func checkBounds(t *testing.T, fix *elideFixture, q *workload.Query, members []index.Index) {
	t.Helper()
	cfg := index.NewConfiguration(members...)
	c := fix.o.Cost(q, cfg)
	qb := fix.o.QueryBounds(q)

	lb, ok := qb.Lower()
	if !ok {
		t.Fatalf("query %q: lower bound not primed", q.Text)
	}
	if lb > c {
		t.Fatalf("query %q cfg %q: lower bound %v above true cost %v", q.Text, cfg.Fingerprint(), lb, c)
	}
	singleTable := ""
	for i, ix := range members {
		id := fix.o.InternIndexID(ix.ID())
		ub, ok := qb.UpperWith(id)
		if !ok {
			t.Fatalf("query %q: no upper bound for member %s", q.Text, ix.ID())
		}
		if c > ub {
			t.Fatalf("query %q cfg %q: true cost %v above member %s upper bound %v", q.Text, cfg.Fingerprint(), c, ix.ID(), ub)
		}
		if i == 0 {
			singleTable = ix.Table
		} else if !strings.EqualFold(singleTable, ix.Table) {
			singleTable = ""
		}
	}
	if singleTable != "" {
		if fl := fix.o.FloorCost(q, singleTable); fl > c {
			t.Fatalf("query %q cfg %q: structural floor %v on %s above true cost %v", q.Text, cfg.Fingerprint(), fl, singleTable, c)
		}
	}
	// Irrelevance exactness: adding a structurally irrelevant pool index
	// must leave the cost bitwise unchanged.
	for _, ix := range fix.pool {
		if cfg.Contains(ix) || IndexRelevant(q, ix) {
			continue
		}
		if got := fix.o.Cost(q, cfg.With(ix)); got != c {
			t.Fatalf("query %q cfg %q: irrelevant index %s changed cost %v -> %v",
				q.Text, cfg.Fingerprint(), ix.ID(), c, got)
		}
	}
}

// TestCostBoundsSound sweeps every query against every single index, every
// index pair, and the full pool — the deterministic companion to
// FuzzCostBounds.
func TestCostBoundsSound(t *testing.T) {
	fix := loadElideFixture(t)
	for _, q := range fix.qs {
		checkBounds(t, fix, q, nil)
		checkBounds(t, fix, q, fix.pool)
		for i := range fix.pool {
			checkBounds(t, fix, q, fix.pool[i:i+1])
			for j := i + 1; j < len(fix.pool); j++ {
				checkBounds(t, fix, q, []index.Index{fix.pool[i], fix.pool[j]})
			}
		}
	}
}

// FuzzCostBounds fuzzes the soundness invariant of the elision layer
// (DESIGN.md §16): for a random (query, configuration ⊆ pool) pair, the
// derived lower bound never exceeds the true what-if cost, and no member's
// upper bound falls below it. A failure here means elision could change a
// recommendation.
func FuzzCostBounds(f *testing.F) {
	f.Add(uint8(0), uint16(0))
	f.Add(uint8(1), uint16(1))
	f.Add(uint8(3), uint16(0b10110))
	f.Add(uint8(7), uint16(0xffff))
	f.Fuzz(func(t *testing.T, qi uint8, mask uint16) {
		fix := loadElideFixture(t)
		q := fix.qs[int(qi)%len(fix.qs)]
		var members []index.Index
		for i := range fix.pool {
			if mask&(1<<i) != 0 {
				members = append(members, fix.pool[i])
			}
		}
		checkBounds(t, fix, q, members)
	})
}

// TestIndexIrrelevanceExact pins IndexRelevant's contract directly: an
// index it reports irrelevant never changes a query's cost, bitwise,
// whether added to the empty configuration or to the rest of the pool —
// the equality that lets the advisor skip those probes wholesale. It also
// sanity-checks that the fixture exercises both outcomes.
func TestIndexIrrelevanceExact(t *testing.T) {
	fix := loadElideFixture(t)
	relevant, irrelevant := 0, 0
	for _, q := range fix.qs {
		base := fix.o.Cost(q, nil)
		for i, ix := range fix.pool {
			if IndexRelevant(q, ix) {
				relevant++
				continue
			}
			irrelevant++
			if got := fix.o.Cost(q, index.NewConfiguration(ix)); got != base {
				t.Errorf("query %q: irrelevant index %s changed base cost %v -> %v", q.Text, ix.ID(), base, got)
			}
			rest := append(append([]index.Index{}, fix.pool[:i]...), fix.pool[i+1:]...)
			c1 := fix.o.Cost(q, index.NewConfiguration(rest...))
			c2 := fix.o.Cost(q, index.NewConfiguration(fix.pool...))
			if c1 != c2 {
				t.Errorf("query %q: irrelevant index %s changed pool cost %v -> %v", q.Text, ix.ID(), c1, c2)
			}
		}
	}
	if relevant == 0 || irrelevant == 0 {
		t.Fatalf("fixture does not exercise both outcomes: %d relevant, %d irrelevant pairs", relevant, irrelevant)
	}
}

// TestElisionMemoExact pins that the memoized atomic costs are bitwise the
// values real what-if calls return — the property that makes memo-exact
// substitution invisible.
func TestElisionMemoExact(t *testing.T) {
	fix := loadElideFixture(t)
	for _, q := range fix.qs {
		qb := fix.o.QueryBounds(q)
		b, ok := qb.BaseCost()
		if !ok {
			t.Fatalf("query %q: base cost not memoized", q.Text)
		}
		if got := fix.o.Cost(q, nil); got != b {
			t.Fatalf("query %q: memoized base %v != Cost %v", q.Text, b, got)
		}
		for _, ix := range fix.pool {
			id := fix.o.InternIndexID(ix.ID())
			a, ok := qb.AtomicCost(id)
			if !ok {
				continue // index not relevant to q: never recorded
			}
			if got := fix.o.Cost(q, index.NewConfiguration(ix)); got != a {
				t.Fatalf("query %q index %s: memoized atomic %v != Cost %v", q.Text, ix.ID(), a, got)
			}
		}
	}
}

// TestSingleflightCoalesces pins the in-flight deduplication: concurrent
// identical costings under latency injection share one plan computation,
// and waiters record cost/elide/singleflight_waits.
func TestSingleflightCoalesces(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	o.SetInjector(sleepInjector{d: 100 * time.Millisecond})
	q, err := workload.NewQuery(cat, 0, "SELECT l_extendedprice FROM lineitem WHERE l_orderkey = 42")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	costs := make([]float64, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			costs[i], errs[i] = o.CostContext(context.Background(), q, nil)
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if costs[i] != costs[0] {
			t.Fatalf("worker %d cost %v != worker 0 cost %v", i, costs[i], costs[0])
		}
	}
	if plans := o.Plans(); plans != 1 {
		t.Fatalf("%d plan computations for %d identical concurrent calls, want 1", plans, workers)
	}
	if _, _, waits := o.ElideStats(); waits == 0 {
		t.Fatal("no singleflight waits recorded — duplicates not coalesced")
	}
	if calls := o.Calls(); calls != workers {
		t.Fatalf("Calls = %d, want %d (waiters still count as calls)", calls, workers)
	}
}

// TestKernelZeroAlloc pins that the elision bound lookups — consulted per
// (candidate, query) in the advisor's greedy inner loop — allocate
// nothing, and neither do a warm compiled-plan evaluation (DESIGN.md §17)
// or a what-if call answered from the cache. The static twin is the
// isumlint alloc analyzer over the //lint:hotpath markers (see
// internal/analysis).
func TestKernelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race instrumentation")
	}
	fix := loadElideFixture(t)
	q := fix.qs[2]
	qb := fix.o.QueryBounds(q)
	id := fix.o.InternIndexID(fix.pool[1].ID())

	check := func(name string, fn func()) {
		t.Helper()
		fn()
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
	check("QueryBounds.BaseCost", func() { _, _ = qb.BaseCost() })
	check("QueryBounds.AtomicCost", func() { _, _ = qb.AtomicCost(id) })
	check("QueryBounds.Lower", func() { _, _ = qb.Lower() })
	check("QueryBounds.UpperWith", func() { _, _ = qb.UpperWith(id) })

	// A configuration with three indexes on the query's table.
	cfg := index.NewConfiguration(fix.pool[0], fix.pool[1], fix.pool[2])
	e := fix.o.shardFor(q.Text).entry(q.Text)
	s := e.skeleton(fix.o, q)
	atoms := e.atomsFor(fix.o, s, relevantMembers(nil, q, cfg), nil)
	if len(atoms) == 0 {
		t.Fatal("fixture configuration has no usable index for the query")
	}
	cur := make([]int32, len(atoms))
	par := fix.o.Params()
	check("planSkeleton.eval", func() { _ = s.eval(par, atoms, cur) })
	ctx := context.Background()
	check("Optimizer.CostContext (cache hit)", func() { _, _ = fix.o.CostContext(ctx, q, cfg) })
}
