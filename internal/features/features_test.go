package features

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"isum/internal/benchmarks"
	"isum/internal/catalog"
	"isum/internal/workload"
)

func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	o := catalog.NewTable("orders", 1500000)
	o.AddColumn(&catalog.Column{Name: "o_orderkey", Type: catalog.TypeInt, DistinctCount: 1500000, Min: 1, Max: 6000000})
	o.AddColumn(&catalog.Column{Name: "o_custkey", Type: catalog.TypeInt, DistinctCount: 100000, Min: 1, Max: 150000})
	o.AddColumn(&catalog.Column{Name: "o_orderdate", Type: catalog.TypeDate, DistinctCount: 2400, Min: 8000, Max: 10500})
	o.AddColumn(&catalog.Column{Name: "o_totalprice", Type: catalog.TypeDecimal, DistinctCount: 1400000, Min: 800, Max: 600000})
	cat.AddTable(o)
	c := catalog.NewTable("customer", 150000)
	c.AddColumn(&catalog.Column{Name: "c_custkey", Type: catalog.TypeInt, DistinctCount: 150000, Min: 1, Max: 150000})
	c.AddColumn(&catalog.Column{Name: "c_nationkey", Type: catalog.TypeInt, DistinctCount: 25, Min: 0, Max: 24})
	cat.AddTable(c)
	return cat
}

func q(t *testing.T, cat *catalog.Catalog, sql string) *workload.Query {
	t.Helper()
	qq, err := workload.NewQuery(cat, 0, sql)
	if err != nil {
		t.Fatal(err)
	}
	return qq
}

func TestWeightedJaccardProperties(t *testing.T) {
	am := mapVec{"x": 1, "y": 0.5}
	bm := mapVec{"x": 0.5, "z": 1}
	in := internMaps(am, bm)
	a, b := sparse(in, am), sparse(in, bm)
	s := a.WeightedJaccard(b)
	// min: x→0.5; max: x→1, y→0.5, z→1 → 0.5/2.5
	if math.Abs(s-0.2) > 1e-12 {
		t.Fatalf("jaccard = %f, want 0.2", s)
	}
	if a.WeightedJaccard(a) != 1 {
		t.Fatal("self similarity must be 1")
	}
	if a.WeightedJaccard(SparseVec{}) != 0 || (SparseVec{}).WeightedJaccard(b) != 0 {
		t.Fatal("empty vector similarity must be 0")
	}
}

func TestWeightedJaccardQuickProperties(t *testing.T) {
	gen := func(seed int64) mapVec {
		rng := rand.New(rand.NewSource(seed))
		v := mapVec{}
		n := rng.Intn(8)
		for i := 0; i < n; i++ {
			v["f"+strconv.Itoa(rng.Intn(10))] = rng.Float64() + 0.01
		}
		return v
	}
	f := func(s1, s2 int64) bool {
		am, bm := gen(s1), gen(s2)
		in := internMaps(am, bm)
		a, b := sparse(in, am), sparse(in, bm)
		s := a.WeightedJaccard(b)
		if s < 0 || s > 1 {
			return false
		}
		// Symmetry.
		if math.Abs(s-b.WeightedJaccard(a)) > 1e-12 {
			return false
		}
		// Identity.
		if a.Len() > 0 && a.WeightedJaccard(a) != 1 {
			return false
		}
		// Empty operand.
		if a.WeightedJaccard(SparseVec{}) != 0 || (SparseVec{}).WeightedJaccard(a) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractFeatureKeys(t *testing.T) {
	cat := testCatalog()
	ex := NewExtractor(cat)
	query := q(t, cat, `SELECT o_totalprice FROM customer, orders
		WHERE c_custkey = o_custkey AND c_nationkey = 7
		GROUP BY o_totalprice ORDER BY o_totalprice`)
	v := asMap(ex.Features(query))
	for _, want := range []string{"customer.c_custkey", "orders.o_custkey", "customer.c_nationkey", "orders.o_totalprice"} {
		if v[want] <= 0 {
			t.Fatalf("feature %q missing: %v", want, v)
		}
	}
	if len(v) != 4 {
		t.Fatalf("features = %v", v)
	}
}

func TestRuleWeightsOrdering(t *testing.T) {
	cat := testCatalog()
	ex := NewExtractor(cat)
	ex.UseTableWeight = false // isolate the positional weights
	query := q(t, cat, `SELECT * FROM orders WHERE o_custkey = 5 AND o_orderkey = o_totalprice
		ORDER BY o_orderdate`)
	// o_custkey: filter; o_orderkey/o_totalprice: (non-equi, both ranges);
	// use a cleaner query instead:
	query = q(t, cat, `SELECT o_custkey FROM customer, orders
		WHERE c_custkey = o_custkey AND o_totalprice > 100 ORDER BY o_orderdate`)
	v := asMap(ex.Features(query))
	// Selection (o_totalprice) and join (o_custkey) columns should outweigh
	// the order-by column (o_orderdate), per Section 4.2.
	if v["orders.o_orderdate"] >= v["orders.o_totalprice"] {
		t.Fatalf("order-by should weigh less than selection: %v", v)
	}
	if v["orders.o_orderdate"] >= v["orders.o_custkey"] {
		t.Fatalf("order-by should weigh less than join: %v", v)
	}
	if v["orders.o_orderdate"] <= 0 {
		t.Fatalf("order-by column must still be present: %v", v)
	}
}

func TestTableWeightEffect(t *testing.T) {
	cat := testCatalog()
	with := NewExtractor(cat)
	without := NewExtractor(cat)
	without.UseTableWeight = false
	query := q(t, cat, `SELECT 1 FROM customer, orders WHERE c_nationkey = 3 AND o_totalprice > 100`)
	vw := asMap(with.Features(query))
	vo := asMap(without.Features(query))
	// orders has 10× the rows of customer: with table weighting the orders
	// column must dominate after normalisation.
	if vw["orders.o_totalprice"] <= vw["customer.c_nationkey"] {
		t.Fatalf("table weight should favour large table: %v", vw)
	}
	// Without table weighting both are pure selection columns on their
	// tables with equal positional weight.
	if math.Abs(vo["orders.o_totalprice"]-vo["customer.c_nationkey"]) > 1e-9 {
		t.Fatalf("without table weight they should tie: %v", vo)
	}
}

func TestStatsBasedWeights(t *testing.T) {
	cat := testCatalog()
	ex := NewExtractor(cat)
	ex.Mode = StatsBased
	ex.UseTableWeight = false
	query := q(t, cat, `SELECT 1 FROM orders WHERE o_orderkey = 77 AND o_totalprice > 100`)
	v := asMap(ex.Features(query))
	// o_orderkey equality is far more selective than the (unselective)
	// price range, so it should carry more weight.
	if v["orders.o_orderkey"] <= v["orders.o_totalprice"] {
		t.Fatalf("selective filter should weigh more: %v", v)
	}
}

func TestNormalizationModes(t *testing.T) {
	cat := testCatalog()
	ex := NewExtractor(cat)
	query := q(t, cat, `SELECT 1 FROM orders WHERE o_custkey = 5 AND o_totalprice > 100 ORDER BY o_orderdate`)

	v := asMap(ex.Features(query))
	var maxW float64
	for _, w := range v {
		if w > maxW {
			maxW = w
		}
	}
	if math.Abs(maxW-1) > 1e-12 {
		t.Fatalf("NormMax should peak at 1: %v", v)
	}

	ex.Norm = NormNone
	raw := asMap(ex.Features(query))
	for _, w := range raw {
		if w > 1 {
			t.Fatalf("raw rule weights must be ≤ 1: %v", raw)
		}
	}

	ex.Norm = NormMinMaxPaper
	paper := ex.Features(query)
	if len(paper) != len(v) {
		t.Fatal("paper normalisation changed the support")
	}
}

// TestFeaturesMatchMapReference pins extraction to the map assembly it
// replaced (refFeatures): on every query of the five generators' seed-1
// workloads, under both weight modes, all three normalisations and with
// table weights on and off, Features returns the reference's keys in
// strictly ascending order with bit-equal weights.
func TestFeaturesMatchMapReference(t *testing.T) {
	const n = 500
	for _, name := range []string{"tpch", "tpcds", "dsb", "realm", "scalem"} {
		gen, err := benchmarks.FromName(name, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := gen.Workload(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []WeightMode{RuleBased, StatsBased} {
			for _, norm := range []NormMode{NormMax, NormMinMaxPaper, NormNone} {
				for _, table := range []bool{true, false} {
					ex := &Extractor{Cat: gen.Cat, Mode: mode, Norm: norm, UseTableWeight: table}
					for i, q := range w.Queries {
						got, want := ex.Features(q), refFeatures(ex, q)
						if len(got) != len(want) {
							t.Fatalf("%s mode=%d norm=%d table=%v query %d: %d features, reference %d", name, mode, norm, table, i, len(got), len(want))
						}
						for j, f := range got {
							if j > 0 && !(got[j-1].Key < f.Key) {
								t.Fatalf("%s mode=%d norm=%d table=%v query %d: keys out of order at %d: %q then %q", name, mode, norm, table, i, j, got[j-1].Key, f.Key)
							}
							rw, ok := want[f.Key]
							if !ok || math.Float64bits(f.W) != math.Float64bits(rw) {
								t.Fatalf("%s mode=%d norm=%d table=%v query %d: %s = %x (%v), reference %x (%v, present %v)", name, mode, norm, table, i, f.Key,
									math.Float64bits(f.W), f.W, math.Float64bits(rw), rw, ok)
							}
						}
					}
				}
			}
		}
	}
}

func TestFeaturesEmptyForNoPredicates(t *testing.T) {
	cat := testCatalog()
	ex := NewExtractor(cat)
	v := ex.Features(q(t, cat, "SELECT 1"))
	if len(v) != 0 {
		t.Fatalf("features = %v", v)
	}
}

// TestExcludeFromSummary pins S(q, V′) on a hand-computed case: V′
// excludes q's utility-scaled contribution from the summary V and rescales
// the remainder, so it is exactly the summary of the other queries.
func TestExcludeFromSummary(t *testing.T) {
	q0m := mapVec{"a": 1, "b": 0.5}
	q1m := mapVec{"b": 1, "c": 1}
	in := internMaps(q0m, q1m)
	q0, q1 := sparse(in, q0m), sparse(in, q1m)
	utils := []float64{0.6, 0.4}
	v := NewDenseVec(in.Len())
	v.AddScaled(q0, utils[0])
	v.AddScaled(q1, utils[1])
	// V = {a: 0.6, b: 0.7, c: 0.4}; excluding q0 leaves V′ = q1 (a drops
	// out, b and c rescale to 1), so S(q0, V′) = WeightedJaccard(q0, q1):
	// Σmin = 0.5 (b), Σmax = 1 + 1 + 1 → 1/6.
	if got := SummarySimilarity(q0, v.Snapshot(), utils[0], 1.0); math.Abs(got-1.0/6.0) > 1e-9 {
		t.Fatalf("S(q0, V′) = %v, want 1/6", got)
	}
	if got, want := SummarySimilarity(q0, v.Snapshot(), utils[0], 1.0), q0.WeightedJaccard(q1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("S(q0, V′) = %v, want WeightedJaccard(q0, q1) = %v", got, want)
	}
	// Excluding the only query leaves nothing to be similar to.
	sole := NewDenseVec(in.Len())
	sole.AddScaled(q0, 0.6)
	if got := SummarySimilarity(q0, sole.Snapshot(), 0.6, 0.6); got != 0 {
		t.Fatalf("sole-query exclusion similarity = %v, want 0", got)
	}
}

func TestCandidateIndexIDs(t *testing.T) {
	cat := testCatalog()
	query := q(t, cat, `SELECT o_totalprice FROM customer, orders
		WHERE c_custkey = o_custkey AND o_totalprice > 100 ORDER BY o_orderdate`)
	ids := CandidateIndexIDs(query.Info)
	for _, want := range []string{
		"orders(o_totalprice)",                       // R1
		"orders(o_custkey)",                          // R2
		"orders(o_totalprice,o_custkey)",             // R3
		"orders(o_custkey,o_totalprice)",             // R4
		"orders(o_orderdate,o_totalprice,o_custkey)", // R5
		"orders(o_orderdate,o_custkey,o_totalprice)", // R7
		"customer(c_custkey)",
	} {
		if !ids[want] {
			t.Fatalf("candidate %q missing: %v", want, ids)
		}
	}
}

func TestSetJaccard(t *testing.T) {
	a := map[string]bool{"x": true, "y": true}
	b := map[string]bool{"y": true, "z": true}
	if got := SetJaccard(a, b); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("jaccard = %f", got)
	}
	if SetJaccard(a, map[string]bool{}) != 0 {
		t.Fatal("empty set similarity must be 0")
	}
	if SetJaccard(a, a) != 1 {
		t.Fatal("self similarity must be 1")
	}
}

func TestPlainJaccardVector(t *testing.T) {
	am := mapVec{"x": 1, "y": 0.2}
	bm := mapVec{"y": 5, "z": 3}
	in := internMaps(am, bm)
	a, b := sparse(in, am), sparse(in, bm)
	if got := a.Jaccard(b); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("jaccard = %f", got)
	}
	if a.Jaccard(SparseVec{}) != 0 {
		t.Fatal("empty must be 0")
	}
}

// TestRuleWeightExactValues pins the Table-1 candidate-counting arithmetic
// on a hand-computed example: S=1 selection, J=1 join, O=1 order-by column
// on one table.
//
//	d(t)      = S + J + G + O + 2SJ + 2OSJ + 2GSJ = 1+1+0+1+2+2+0 = 7
//	d(t,sel)  = 1 + 2J + 2OJ + 2GJ                = 1+2+2+0       = 5
//	d(t,join) = 1 + 2S + 2OS + 2GS                = 1+2+2+0       = 5
//	d(t,ob)   = 1 + 2SJ                           = 1+2           = 3
func TestRuleWeightExactValues(t *testing.T) {
	cat := testCatalog()
	ex := NewExtractor(cat)
	ex.UseTableWeight = false
	ex.Norm = NormNone
	query := q(t, cat, `SELECT 1 FROM customer, orders
		WHERE c_custkey = o_custkey AND o_totalprice > 100 ORDER BY o_orderdate`)
	v := asMap(ex.Features(query))
	// orders has S=1 (o_totalprice), J=1 (o_custkey), O=1 (o_orderdate).
	checks := map[string]float64{
		"orders.o_totalprice": 5.0 / 7.0,
		"orders.o_custkey":    5.0 / 7.0,
		"orders.o_orderdate":  3.0 / 7.0,
		// customer has only the join column: d(t)=1, d(t,c)=1.
		"customer.c_custkey": 1.0,
	}
	for key, want := range checks {
		if math.Abs(v[key]-want) > 1e-12 {
			t.Errorf("%s = %f, want %f (full: %v)", key, v[key], want, v)
		}
	}
}

// TestRuleWeightGroupOnlyQuery: a query with only group-by columns should
// still featurise (the singleton-rule extension, DESIGN.md §5).
func TestRuleWeightGroupOnlyQuery(t *testing.T) {
	cat := testCatalog()
	ex := NewExtractor(cat)
	ex.UseTableWeight = false
	query := q(t, cat, "SELECT o_orderdate, COUNT(*) FROM orders GROUP BY o_orderdate")
	v := asMap(ex.Features(query))
	if math.Abs(v["orders.o_orderdate"]-1) > 1e-12 {
		t.Fatalf("group-only weight = %v", v)
	}
}
