package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"isum/internal/benchmarks"
	"isum/internal/cost"
)

// TestConsedIdentityOnDistinctTemplates pins that on a workload with no
// repeated templates, template hash-consing is a no-op: the consed
// pipeline produces byte-identical output — indices, weights, benefits,
// rounds — to the plain per-query pipeline (one state per query either
// way, same interner batch, same utilities).
func TestConsedIdentityOnDistinctTemplates(t *testing.T) {
	// 60 Real-M queries cycle 456 templates round-robin: all distinct.
	w := generatorWorkload(t, "realm", 60)
	if w.NumTemplates() != w.Len() {
		t.Fatalf("want distinct templates, got %d templates over %d queries", w.NumTemplates(), w.Len())
	}
	const k = 12
	plain := compress(t, New(DefaultOptions()), w, k)
	for _, par := range []int{1, 4} {
		opts := DefaultOptions()
		opts.ConsTemplates = true
		opts.Parallelism = par
		got := compress(t, New(opts), w, k)
		if !reflect.DeepEqual(got.Indices, plain.Indices) {
			t.Fatalf("parallelism=%d: selection diverged:\n got %v\nwant %v", par, got.Indices, plain.Indices)
		}
		for i := range got.Indices {
			if math.Float64bits(got.Weights[i]) != math.Float64bits(plain.Weights[i]) {
				t.Fatalf("parallelism=%d: weight %d: got %v, plain %v", par, i, got.Weights[i], plain.Weights[i])
			}
			if math.Float64bits(got.SelectionBenefits[i]) != math.Float64bits(plain.SelectionBenefits[i]) {
				t.Fatalf("parallelism=%d: benefit %d: got %v, plain %v", par, i, got.SelectionBenefits[i], plain.SelectionBenefits[i])
			}
		}
		if got.Rounds != plain.Rounds {
			t.Fatalf("parallelism=%d: rounds: got %d, plain %d", par, got.Rounds, plain.Rounds)
		}
	}
}

// TestConsedStatesPoolUtilities pins the consed state builder directly:
// one state per template, representatives are first instances, and each
// state's utility is the sum of its instances' normalised utilities
// (Algorithm 4's pooling applied before selection), summing to 1 overall.
func TestConsedStatesPoolUtilities(t *testing.T) {
	gen := benchmarks.TPCH(10)
	const instances = 3
	w, err := gen.WorkloadPerTemplate(instances, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cost.NewOptimizer(gen.Cat).FillCostsCtx(context.Background(), w, 0); err != nil {
		t.Fatal(err)
	}

	nTmpl := w.NumTemplates()
	if nTmpl >= w.Len() {
		t.Fatalf("duplicated workload has %d templates over %d queries", nTmpl, w.Len())
	}
	states, repIdx, err := buildConsedStates(context.Background(), w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != nTmpl || len(repIdx) != nTmpl {
		t.Fatalf("got %d states, %d reps; want %d", len(states), len(repIdx), nTmpl)
	}

	// Per-query utilities from the plain builder, for comparison.
	plain, err := BuildStatesContext(context.Background(), w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	perTemplate := map[string]float64{}
	firstInstance := map[string]int{}
	for i, q := range w.Queries {
		perTemplate[q.TemplateID] += plain[i].Utility
		if _, ok := firstInstance[q.TemplateID]; !ok {
			firstInstance[q.TemplateID] = i
		}
	}

	var total float64
	for g, st := range states {
		if st.Index != g {
			t.Fatalf("state %d has Index %d", g, st.Index)
		}
		rep := repIdx[g]
		if want := firstInstance[st.Query.TemplateID]; rep != want {
			t.Fatalf("template %s: representative %d, want first instance %d", st.Query.TemplateID, rep, want)
		}
		if w.Queries[rep] != st.Query {
			t.Fatalf("state %d: Query is not the representative instance", g)
		}
		if want := perTemplate[st.Query.TemplateID]; math.Abs(st.Utility-want) > 1e-12 {
			t.Fatalf("template %s: pooled utility %v, want instance sum %v", st.Query.TemplateID, st.Utility, want)
		}
		if st.Utility != st.OrigUtility {
			t.Fatalf("state %d: Utility %v != OrigUtility %v", g, st.Utility, st.OrigUtility)
		}
		total += st.Utility
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("pooled utilities sum to %v, want 1", total)
	}
}

// TestConsedCompressOnDuplicates pins the end-to-end consed pipeline on a
// duplicate-heavy workload: indices are representative workload positions
// (one per distinct selected template), weights normalise, and — since
// duplicates add no new templates — the selected template set matches the
// plain pipeline run on one instance of each template.
func TestConsedCompressOnDuplicates(t *testing.T) {
	gen := benchmarks.TPCH(10)
	const instances = 8
	w, err := gen.WorkloadPerTemplate(instances, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cost.NewOptimizer(gen.Cat).FillCostsCtx(context.Background(), w, 0); err != nil {
		t.Fatal(err)
	}

	const k = 8
	opts := DefaultOptions()
	opts.ConsTemplates = true
	res := compress(t, New(opts), w, k)
	if res.Partial {
		t.Fatal("background consed compress must not be partial")
	}
	if len(res.Indices) != k {
		t.Fatalf("selected %d, want %d", len(res.Indices), k)
	}
	seenTmpl := map[string]bool{}
	for _, idx := range res.Indices {
		q := w.Queries[idx]
		if idx%instances != 0 {
			t.Fatalf("index %d is not a template representative (first instance)", idx)
		}
		if seenTmpl[q.TemplateID] {
			t.Fatalf("template %s selected twice", q.TemplateID)
		}
		seenTmpl[q.TemplateID] = true
	}
	var sum float64
	for _, wt := range res.Weights {
		sum += wt
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}

	// Uniform duplication scales every template's pooled utility by the
	// same factor, so consed selection on the duplicated workload must
	// match plain selection on the deduplicated one template-for-template.
	dedup, err := gen.WorkloadPerTemplate(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cost.NewOptimizer(gen.Cat).FillCostsCtx(context.Background(), dedup, 0); err != nil {
		t.Fatal(err)
	}
	base := compress(t, New(DefaultOptions()), dedup, k)
	var baseTmpl, consTmpl []string
	for _, idx := range base.Indices {
		baseTmpl = append(baseTmpl, dedup.Queries[idx].TemplateID)
	}
	for _, idx := range res.Indices {
		consTmpl = append(consTmpl, w.Queries[idx].TemplateID)
	}
	if !reflect.DeepEqual(consTmpl, baseTmpl) {
		t.Fatalf("consed selection on duplicated workload diverged from plain selection on deduplicated one:\n got %v\nwant %v", consTmpl, baseTmpl)
	}
}
