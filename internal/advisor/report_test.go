package advisor

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"isum/internal/cost"
)

func TestReportDrillDown(t *testing.T) {
	cat := testCatalog()
	o := cost.NewOptimizer(cat)
	w := testWorkload(t, cat)
	if err := o.FillCostsCtx(context.Background(), w, 0); err != nil {
		t.Fatal(err)
	}
	res := tune(t, New(o, DefaultOptions()), w)

	rep := Report(o, w, res.Config)
	if len(rep.Queries) != w.Len() {
		t.Fatalf("report rows = %d", len(rep.Queries))
	}
	if rep.ImprovementPct <= 0 {
		t.Fatalf("improvement = %f", rep.ImprovementPct)
	}
	// At least one query must actually use a recommended index.
	used := 0
	for _, qr := range rep.Queries {
		used += len(qr.IndexesUsed)
		if qr.After > qr.Before+1e-9 {
			t.Fatalf("query %d regressed: %f -> %f", qr.ID, qr.Before, qr.After)
		}
	}
	if used == 0 {
		t.Fatal("no query uses any recommended index")
	}
	if len(rep.IndexUsage) == 0 {
		t.Fatal("index usage empty")
	}

	var buf bytes.Buffer
	rep.Write(&buf, 3)
	out := buf.String()
	for _, want := range []string{"workload improvement", "top 3 improved queries", "index usage:", "uses"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainPlan(t *testing.T) {
	cat := testCatalog()
	o := cost.NewOptimizer(cat)
	w := testWorkload(t, cat)
	res := tune(t, New(o, DefaultOptions()), w)

	q := w.Queries[0] // selective l_orderkey lookup
	planBare := o.Explain(q, nil)
	if len(planBare.IndexesUsed()) != 0 {
		t.Fatalf("bare plan should use no indexes: %v", planBare.IndexesUsed())
	}
	planTuned := o.Explain(q, res.Config)
	if len(planTuned.IndexesUsed()) == 0 {
		t.Fatalf("tuned plan should use an index:\n%s", planTuned)
	}
	if planTuned.Total > planBare.Total {
		t.Fatal("tuned plan should not cost more")
	}
	s := planTuned.String()
	if !strings.Contains(s, "cost ") || !strings.Contains(s, "lineitem") {
		t.Fatalf("plan string = %q", s)
	}
}
