package benchmarks

import (
	"context"
	"fmt"
	"testing"

	"isum/internal/cost"
	"isum/internal/workload"
)

func TestTPCHShape(t *testing.T) {
	g := TPCH(10)
	if g.Cat.NumTables() != 8 {
		t.Fatalf("tables = %d, want 8", g.Cat.NumTables())
	}
	if g.NumTemplates() != 22 {
		t.Fatalf("templates = %d, want 22", g.NumTemplates())
	}
	if errs := g.Cat.Validate(); len(errs) > 0 {
		t.Fatalf("catalog invalid: %v", errs)
	}
	li := g.Cat.Table("lineitem")
	or := g.Cat.Table("orders")
	if li.RowCount != 4*or.RowCount {
		t.Fatalf("lineitem/orders ratio wrong: %d vs %d", li.RowCount, or.RowCount)
	}
}

func TestTPCDSShape(t *testing.T) {
	g := TPCDS(10)
	if g.Cat.NumTables() != 24 {
		t.Fatalf("tables = %d, want 24", g.Cat.NumTables())
	}
	if g.NumTemplates() != 91 {
		t.Fatalf("templates = %d, want 91", g.NumTemplates())
	}
	if errs := g.Cat.Validate(); len(errs) > 0 {
		t.Fatalf("catalog invalid: %v", errs)
	}
}

func TestDSBShape(t *testing.T) {
	g := DSB(10)
	if g.NumTemplates() != 52 {
		t.Fatalf("templates = %d, want 52", g.NumTemplates())
	}
	classes := map[QueryClass]int{}
	for _, tpl := range g.Templates {
		classes[tpl.Class]++
	}
	if classes[ClassSPJ] < 15 || classes[ClassAggregate] < 15 || classes[ClassComplex] < 15 {
		t.Fatalf("class mix unbalanced: %v", classes)
	}
	if errs := g.Cat.Validate(); len(errs) > 0 {
		t.Fatalf("catalog invalid: %v", errs)
	}
}

func TestRealMShape(t *testing.T) {
	g := RealM(42)
	if g.Cat.NumTables() != 474 {
		t.Fatalf("tables = %d, want 474", g.Cat.NumTables())
	}
	if g.NumTemplates() != 456 {
		t.Fatalf("templates = %d, want 456", g.NumTemplates())
	}
	if errs := g.Cat.Validate(); len(errs) > 0 {
		t.Fatalf("catalog invalid: %v (first)", errs[0])
	}
}

// TestAllGeneratorsProduceAnalysableWorkloads instantiates every template of
// every benchmark and requires it to parse, bind, and produce indexable
// features and a positive cost.
func TestAllGeneratorsProduceAnalysableWorkloads(t *testing.T) {
	gens := []*Generator{TPCH(1), TPCDS(1), DSB(1), RealM(7)}
	for _, g := range gens {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			w, err := g.Workload(g.NumTemplates(), 3)
			if err != nil {
				t.Fatal(err)
			}
			if w.Len() != g.NumTemplates() {
				t.Fatalf("len = %d", w.Len())
			}
			if err := cost.NewOptimizer(g.Cat).FillCostsCtx(context.Background(), w, 0); err != nil {
				t.Fatal(err)
			}
			noTables, noCost := 0, 0
			for i, q := range w.Queries {
				if len(q.Info.Tables) == 0 {
					noTables++
					t.Errorf("template %s (query %d) binds no tables", g.Templates[i%len(g.Templates)].Name, i)
				}
				if q.Cost <= 0 {
					noCost++
				}
			}
			if noCost > 0 {
				t.Fatalf("%d queries with non-positive cost", noCost)
			}
		})
	}
}

func TestWorkloadTableTwoCounts(t *testing.T) {
	// Table 2 of the paper: template and table counts per workload at the
	// paper's workload sizes.
	cases := []struct {
		gen       *Generator
		n         int
		templates int
	}{
		{TPCH(1), 2200, 22},
		{DSB(1), 520, 52},
	}
	for _, c := range cases {
		w, err := c.gen.Workload(c.n, 5)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.NumTemplates(); got != c.templates {
			t.Fatalf("%s: templates = %d, want %d", c.gen.Name, got, c.templates)
		}
	}
}

func TestWorkloadDeterministicBySeed(t *testing.T) {
	g := TPCH(1)
	a, err := g.Workload(44, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Workload(44, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Queries {
		if a.Queries[i].Text != b.Queries[i].Text {
			t.Fatalf("query %d differs between identically-seeded runs", i)
		}
	}
	c, _ := g.Workload(44, 10)
	same := true
	for i := range a.Queries {
		if a.Queries[i].Text != c.Queries[i].Text {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should vary parameters")
	}
}

func TestWorkloadPerTemplate(t *testing.T) {
	g := DSB(1)
	w, err := g.WorkloadPerTemplate(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 52*4 {
		t.Fatalf("len = %d", w.Len())
	}
	for tid, cnt := range w.TemplateCounts() {
		if cnt != 4 {
			t.Fatalf("template %q has %d instances, want 4", tid, cnt)
		}
	}
}

func TestWorkloadByClass(t *testing.T) {
	g := DSB(1)
	for _, class := range []QueryClass{ClassSPJ, ClassAggregate, ClassComplex} {
		w, err := g.WorkloadByClass(class, 30, 2)
		if err != nil {
			t.Fatal(err)
		}
		if w.Len() != 30 {
			t.Fatalf("%s: len = %d", class, w.Len())
		}
	}
	if _, err := (&Generator{Name: "x", Templates: []Template{}}).WorkloadByClass(ClassSPJ, 5, 1); err == nil {
		t.Fatal("expected error for empty class")
	}
}

func TestRealMCostSkew(t *testing.T) {
	g := RealM(11)
	w, err := g.Workload(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := cost.NewOptimizer(g.Cat).FillCostsCtx(context.Background(), w, 0); err != nil {
		t.Fatal(err)
	}
	// The paper describes Real-M as cost-dominated: the top decile of
	// queries should hold a large share of total cost.
	costs := make([]float64, w.Len())
	var total float64
	for i, q := range w.Queries {
		costs[i] = q.Cost
		total += q.Cost
	}
	// top 10% share
	top := topShare(costs, 0.1)
	if top < 0.3*total {
		t.Fatalf("cost skew too low: top decile %.0f of %.0f", top, total)
	}
}

func topShare(costs []float64, frac float64) float64 {
	cp := append([]float64{}, costs...)
	for i := range cp {
		for j := i + 1; j < len(cp); j++ {
			if cp[j] > cp[i] {
				cp[i], cp[j] = cp[j], cp[i]
			}
		}
	}
	n := int(float64(len(cp)) * frac)
	var s float64
	for i := 0; i < n; i++ {
		s += cp[i]
	}
	return s
}

func TestQueryClassString(t *testing.T) {
	if ClassSPJ.String() != "SPJ" || ClassAggregate.String() != "Aggregate" ||
		ClassComplex.String() != "Complex" || QueryClass(9).String() != "?" {
		t.Fatal("class names broken")
	}
}

func TestScaleFactorScalesRows(t *testing.T) {
	small, big := TPCH(1), TPCH(10)
	ls, lb := small.Cat.Table("lineitem").RowCount, big.Cat.Table("lineitem").RowCount
	if lb != 10*ls {
		t.Fatalf("sf scaling broken: %d vs %d", ls, lb)
	}
	if small.Cat.Table("region").RowCount != big.Cat.Table("region").RowCount {
		t.Fatal("fixed tables should not scale")
	}
}

func TestTemplatesProduceStableFingerprints(t *testing.T) {
	// Instances of the same template must share a workload fingerprint.
	g := TPCH(1)
	for ti, tpl := range g.Templates {
		w, err := g.workloadFromTemplateIndices([]int{ti, ti, ti}, 77)
		if err != nil {
			t.Fatalf("%s: %v", tpl.Name, err)
		}
		fp := w.Queries[0].TemplateID
		for _, q := range w.Queries[1:] {
			if q.TemplateID != fp {
				t.Fatalf("%s: instances diverge:\n%s\n%s", tpl.Name, w.Queries[0].Text, q.Text)
			}
		}
	}
}

func ExampleGenerator_Workload() {
	g := TPCH(1)
	w, _ := g.Workload(44, 1)
	fmt.Println(w.Len(), w.NumTemplates())
	// Output: 44 22
}

var _ = workload.Fingerprint // keep import for Example symmetry

func TestRealMTemplateVariety(t *testing.T) {
	// Table 2 profile: 473 queries over ~456 templates. Literal
	// normalisation merges a few structurally identical templates; require
	// the distinct count to stay close.
	g := RealM(41)
	w, err := g.Workload(473, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumTemplates() < 420 {
		t.Fatalf("distinct templates = %d, want >= 420", w.NumTemplates())
	}
}
