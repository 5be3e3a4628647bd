package cost

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"isum/internal/benchmarks"
	"isum/internal/catalog"
	"isum/internal/index"
	"isum/internal/workload"
)

// compiledFixture is one generator's workload plus a pool of candidate
// indexes on the columns its queries use: single-key, two-key (both key
// orders) and INCLUDE variants.
type compiledFixture struct {
	name string
	cat  *catalog.Catalog
	qs   []*workload.Query
	pool map[string][]index.Index // by lower-cased table
}

var compiledFix struct {
	once sync.Once
	fixs []*compiledFixture
	err  error
}

// craftedSQL covers plan shapes the generators rarely produce: cross
// joins, self-joins, constant blocks, DISTINCT, SELECT *, subqueries, and
// the exact access-cost tie of TestCostIndependentOfInsertionOrder.
var craftedSQL = []string{
	"SELECT c_mktsegment, o_totalprice FROM customer, orders WHERE c_nationkey = 3 AND o_totalprice > 590000",
	"SELECT l_comment FROM lineitem, orders, customer WHERE l_orderkey = o_orderkey AND c_nationkey = 7",
	"SELECT l1.l_orderkey FROM lineitem l1, lineitem l2 WHERE l1.l_orderkey = l2.l_orderkey AND l1.l_suppkey = 5",
	"SELECT 1",
	"SELECT DISTINCT l_suppkey FROM lineitem WHERE l_quantity = 7 ORDER BY l_suppkey",
	"SELECT * FROM orders WHERE o_custkey = 7 ORDER BY o_orderdate",
	"SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_suppkey = 5 AND l_quantity = 7 GROUP BY l_suppkey",
	"SELECT o_orderdate FROM orders WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem WHERE l_quantity > 45)",
	"SELECT COUNT(*) FROM lineitem, orders, customer WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey AND c_mktsegment = 'BUILDING' AND l_shipdate > '1995-03-15'",
	"SELECT l_extendedprice FROM lineitem WHERE l_comment LIKE 'fur%' ORDER BY l_extendedprice",
}

// loadCompiledFixtures builds the four generators' fixtures, plus the
// crafted queries on the test catalog, once.
func loadCompiledFixtures(t testing.TB) []*compiledFixture {
	t.Helper()
	compiledFix.once.Do(func() {
		for _, name := range []string{"tpch", "tpcds", "dsb", "realm", "crafted"} {
			var cat *catalog.Catalog
			var qs []*workload.Query
			if name == "crafted" {
				cat = testCatalog()
				for i, sql := range craftedSQL {
					q, err := workload.NewQuery(cat, i, sql)
					if err != nil {
						compiledFix.err = err
						return
					}
					qs = append(qs, q)
				}
			} else {
				gen, err := benchmarks.FromName(name, 1, 1)
				if err != nil {
					compiledFix.err = err
					return
				}
				w, err := gen.Workload(60, 7)
				if err != nil {
					compiledFix.err = err
					return
				}
				cat, qs = gen.Cat, w.Queries
			}
			fix := &compiledFixture{name: name, cat: cat, qs: qs, pool: map[string][]index.Index{}}
			seen := map[string]bool{}
			add := func(ix index.Index) {
				if id := ix.ID(); !seen[id] {
					seen[id] = true
					fix.pool[ix.Table] = append(fix.pool[ix.Table], ix)
				}
			}
			for _, q := range qs {
				if q.Info == nil {
					continue
				}
				for _, blk := range q.Info.Blocks {
					cols := map[string][]string{}
					use := func(cu workload.ColumnUse) {
						for _, c := range cols[cu.Table] {
							if c == cu.Column {
								return
							}
						}
						cols[cu.Table] = append(cols[cu.Table], cu.Column)
					}
					for _, f := range blk.Filters {
						use(f.ColumnUse)
					}
					for _, j := range blk.Joins {
						use(j.Left)
						use(j.Right)
					}
					for _, c := range blk.GroupBy {
						use(c)
					}
					for _, c := range blk.OrderBy {
						use(c)
					}
					for _, c := range blk.Projected {
						use(c)
					}
					for table, cs := range cols {
						for i, c := range cs {
							add(index.New(table, c))
							add(index.New(table, c).WithIncludes(cs...))
							if i+1 < len(cs) {
								add(index.New(table, c, cs[i+1]))
								add(index.New(table, cs[i+1], c))
							}
						}
					}
				}
			}
			for _, list := range fix.pool {
				sort.Slice(list, func(i, j int) bool { return list[i].ID() < list[j].ID() })
			}
			compiledFix.fixs = append(compiledFix.fixs, fix)
		}
	})
	if compiledFix.err != nil {
		t.Fatalf("compiled-plan fixture: %v", compiledFix.err)
	}
	return compiledFix.fixs
}

// randomMembers draws 0–6 pool indexes on q's tables.
func (fix *compiledFixture) randomMembers(rng *rand.Rand, q *workload.Query) []index.Index {
	var local []index.Index
	for _, t := range q.Info.Tables {
		local = append(local, fix.pool[t]...)
	}
	n := rng.Intn(7)
	if len(local) == 0 || n == 0 {
		return nil
	}
	out := make([]index.Index, n)
	for i := range out {
		out[i] = local[rng.Intn(len(local))]
	}
	return out
}

// checkCompiledPlan holds the compiled plan to the reference planner for
// one (query, configuration) pair: the total and the access+join subtotal
// bit for bit, with the configuration as a cloned set and as a probe view
// over the rest, plus the per-occurrence access choices Explain reports.
func checkCompiledPlan(t *testing.T, fix *compiledFixture, q *workload.Query, members []index.Index) {
	t.Helper()
	cfg := index.NewConfiguration(members...)
	par := DefaultParams()
	want := refCostParts(fix.cat, par, q, cfg)
	forms := []struct {
		name string
		cfg  *index.Configuration
	}{{"cloned", cfg.Clone()}}
	if len(members) > 0 {
		last := members[len(members)-1]
		rest := index.NewConfiguration(members[:len(members)-1]...)
		forms = append(forms, struct {
			name string
			cfg  *index.Configuration
		}{"probe view", rest.Probe(index.NewMember(last))})
	}
	for _, form := range forms {
		o := NewOptimizer(fix.cat)
		got := o.costParts(q, form.cfg)
		if math.Float64bits(got.c) != math.Float64bits(want.c) || math.Float64bits(got.aj) != math.Float64bits(want.aj) {
			t.Fatalf("%s query %d %q cfg %q (%s): compiled (%v, %v) != reference (%v, %v)",
				fix.name, q.ID, q.Text, cfg.Fingerprint(), form.name, got.c, got.aj, want.c, want.aj)
		}
	}

	// Explain reads the access choices off the same compiled plan.
	plan := NewOptimizer(fix.cat).Explain(q, cfg)
	i := 0
	for _, blk := range q.Info.Blocks {
		p := &blockPlanner{cat: fix.cat, cfg: cfg, blk: blk, par: par}
		p.groupFilters()
		for _, tu := range blk.Tables {
			tab := fix.cat.Table(tu.Table)
			if tab == nil {
				continue
			}
			ap := p.bestAccess(tu, tab)
			got := plan.Accesses[i]
			i++
			wantID, gotID := "", ""
			if ap.idx != nil {
				wantID = ap.idx.ID()
			}
			if got.Index != nil {
				gotID = got.Index.ID()
			}
			if gotID != wantID || math.Float64bits(got.Cost) != math.Float64bits(ap.cost) ||
				got.Covering != ap.covering || got.SeekSelectivity != ap.seekSel || got.OutRows != ap.outRows {
				t.Fatalf("%s query %d cfg %q: Explain access %d = %+v (index %q), reference index %q cost %v",
					fix.name, q.ID, cfg.Fingerprint(), i-1, got, gotID, wantID, ap.cost)
			}
		}
	}
	if i != len(plan.Accesses) {
		t.Fatalf("%s query %d: Explain reports %d accesses, reference %d", fix.name, q.ID, len(plan.Accesses), i)
	}
}

// TestCompiledPlanMatchesReference pins the compiled what-if plan
// (DESIGN.md §17) against the reference planner bit for bit, over all
// four generators plus crafted plan shapes, and random configurations of
// 0–6 indexes, cloned and as probe views. It also pins the skeleton's
// tail bounds and structural floors, which the elision layer reads,
// against the reference's.
func TestCompiledPlanMatchesReference(t *testing.T) {
	perQuery := 40
	if testing.Short() {
		perQuery = 5
	}
	rng := rand.New(rand.NewSource(17))
	pairs := 0
	for _, fix := range loadCompiledFixtures(t) {
		o := NewOptimizer(fix.cat)
		par := o.Params()
		for _, q := range fix.qs {
			if q.Info == nil {
				continue
			}
			for i := 0; i < perQuery; i++ {
				checkCompiledPlan(t, fix, q, fix.randomMembers(rng, q))
				pairs++
			}
			s := o.skeletonFor(q)
			for bi, blk := range q.Info.Blocks {
				lo, hi := s.blocks[bi].tailBounds()
				wlo, whi := refBlockTailBounds(fix.cat, blk, par)
				if math.Float64bits(lo) != math.Float64bits(wlo) || math.Float64bits(hi) != math.Float64bits(whi) {
					t.Fatalf("%s query %d block %d: tail bounds (%v, %v) != reference (%v, %v)", fix.name, q.ID, bi, lo, hi, wlo, whi)
				}
				for _, table := range q.Info.Tables {
					got, want := s.floorAJ(par, &s.blocks[bi], table), refFloorBlockAJ(fix.cat, blk, par, table)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s query %d block %d: floor on %s %v != reference %v", fix.name, q.ID, bi, table, got, want)
					}
				}
			}
		}
	}
	t.Logf("%d (query, configuration) pairs bitwise equal", pairs)
}

// FuzzCompiledPlan fuzzes the compiled plan against the reference planner:
// a generator, a query, and a seed drawing a random configuration on the
// query's tables.
func FuzzCompiledPlan(f *testing.F) {
	f.Add(uint8(0), uint16(0), int64(1))
	f.Add(uint8(1), uint16(7), int64(2))
	f.Add(uint8(2), uint16(33), int64(3))
	f.Add(uint8(3), uint16(59), int64(4))
	f.Add(uint8(4), uint16(0), int64(5))
	f.Fuzz(func(t *testing.T, gi uint8, qi uint16, seed int64) {
		fixs := loadCompiledFixtures(t)
		fix := fixs[int(gi)%len(fixs)]
		q := fix.qs[int(qi)%len(fix.qs)]
		if q.Info == nil {
			return
		}
		checkCompiledPlan(t, fix, q, fix.randomMembers(rand.New(rand.NewSource(seed)), q))
	})
}

// TestCostIndependentOfInsertionOrder pins the access-path tie-break: two
// indexes whose access costs tie exactly but deliver different key orders
// (so the GROUP BY streams under one and hashes under the other) cost the
// same whichever was added first, and however often the configuration is
// cloned — the lowest canonical index ID takes the tie.
func TestCostIndependentOfInsertionOrder(t *testing.T) {
	cat := testCatalog()
	q := mustQuery(t, cat, "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_suppkey = 5 AND l_quantity = 7 GROUP BY l_suppkey")
	a := index.New("lineitem", "l_suppkey", "l_quantity")
	b := index.New("lineitem", "l_quantity", "l_suppkey")

	// The two access paths really tie, so the tie-break decides.
	blk := q.Info.Blocks[0]
	tab := cat.Table("lineitem")
	pa := &blockPlanner{cat: cat, cfg: index.NewConfiguration(a), blk: blk, par: DefaultParams()}
	pa.groupFilters()
	pb := &blockPlanner{cat: cat, cfg: index.NewConfiguration(b), blk: blk, par: DefaultParams()}
	pb.groupFilters()
	if ca, cb := pa.bestAccess(blk.Tables[0], tab).cost, pb.bestAccess(blk.Tables[0], tab).cost; ca != cb {
		t.Fatalf("fixture does not tie: access costs %v and %v", ca, cb)
	}
	if NewOptimizer(cat).Cost(q, index.NewConfiguration(a)) == NewOptimizer(cat).Cost(q, index.NewConfiguration(b)) {
		t.Fatal("fixture does not exercise the tie: both orders cost the same alone")
	}

	ab := index.NewConfiguration(a, b)
	want := NewOptimizer(cat).Cost(q, ab)
	if got := NewOptimizer(cat).Cost(q, index.NewConfiguration(b, a)); got != want {
		t.Fatalf("cost under (b, a) = %v, under (a, b) = %v", got, want)
	}
	if ref := refCostParts(cat, DefaultParams(), q, index.NewConfiguration(b, a)).c; ref != want {
		t.Fatalf("reference cost under (b, a) = %v, compiled %v", ref, want)
	}
	for i := 0; i < 200; i++ {
		if got := NewOptimizer(cat).Cost(q, ab.Clone()); got != want {
			t.Fatalf("clone %d costs %v, original %v", i, got, want)
		}
	}
}
