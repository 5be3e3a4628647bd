package isum_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"isum"
)

// compress, tune and evaluate run the façade's pipeline stages on a
// background context and fail the test on an error.
func compress(t *testing.T, w *isum.Workload, k int) (*isum.Workload, *isum.CompressionResult) {
	t.Helper()
	cw, res, err := isum.Compress(context.Background(), w, k)
	if err != nil {
		t.Fatal(err)
	}
	return cw, res
}

func tune(t *testing.T, o *isum.Optimizer, w *isum.Workload, opts isum.AdvisorOptions) *isum.TuningResult {
	t.Helper()
	res, err := isum.Tune(context.Background(), o, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func evaluate(t *testing.T, o *isum.Optimizer, w *isum.Workload, cfg *isum.Configuration) (pct, before, after float64) {
	t.Helper()
	pct, before, after, err := isum.Evaluate(context.Background(), o, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pct, before, after
}

// TestPublicAPIPipeline exercises the façade end to end: generate → cost →
// compress → tune → evaluate, entirely through the public names.
func TestPublicAPIPipeline(t *testing.T) {
	gen := isum.TPCH(1)
	w, err := gen.Workload(44, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := isum.NewOptimizer(gen.Cat)
	o.FillCosts(w)

	cw, res := compress(t, w, 6)
	if cw.Len() != 6 || len(res.Weights) != 6 {
		t.Fatalf("compressed = %d queries", cw.Len())
	}

	opts := isum.DefaultAdvisorOptions()
	opts.MaxIndexes = 10
	tuned := tune(t, o, cw, opts)
	if tuned.Config.Len() == 0 {
		t.Fatal("no indexes recommended")
	}

	pct, before, after := evaluate(t, o, w, tuned.Config)
	if pct <= 0 || after >= before {
		t.Fatalf("no improvement: %f%% (%f -> %f)", pct, before, after)
	}
}

// TestPublicAPICustomCatalog checks that a user-built catalog and workload
// work through the façade.
func TestPublicAPICustomCatalog(t *testing.T) {
	cat := isum.NewCatalog()
	tab := isum.NewCatalogTable("items", 100000)
	tab.AddColumn(&isum.Column{Name: "id", Type: 0, DistinctCount: 100000, Min: 1, Max: 100000})
	tab.AddColumn(&isum.Column{Name: "price", Type: 2, DistinctCount: 5000, Min: 0, Max: 1000})
	cat.AddTable(tab)

	w, err := isum.NewWorkload(cat, []string{
		"SELECT price FROM items WHERE id = 7",
		"SELECT id FROM items WHERE price > 900",
	})
	if err != nil {
		t.Fatal(err)
	}
	isum.NewOptimizer(cat).FillCosts(w)
	cw, _ := compress(t, w, 1)
	if cw.Len() != 1 {
		t.Fatalf("compressed = %d", cw.Len())
	}
}

// TestVariantOptions checks the documented variant constructors.
func TestVariantOptions(t *testing.T) {
	d := isum.DefaultOptions()
	s := isum.ISUMSOptions()
	if d.FeatureMode == s.FeatureMode {
		t.Fatal("ISUM-S should switch feature mode")
	}
	if isum.NewCompressor(d).Name() != "ISUM" || isum.NewCompressor(s).Name() != "ISUM-S" {
		t.Fatal("variant names wrong")
	}
	if isum.DexterAdvisorOptions().MinImprovement != 0.05 {
		t.Fatal("dexter threshold wrong")
	}
}

// TestFacadeExtensions covers Explain, Report, and NewIncremental through
// the public API.
func TestFacadeExtensions(t *testing.T) {
	gen := isum.TPCH(1)
	w, err := gen.Workload(44, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := isum.NewOptimizer(gen.Cat)
	o.FillCosts(w)

	cw, _ := compress(t, w, 6)
	opts := isum.DefaultAdvisorOptions()
	opts.MaxIndexes = 8
	tuned := tune(t, o, cw, opts)

	plan := isum.Explain(o, w.Queries[0], tuned.Config)
	if plan.Total <= 0 {
		t.Fatal("plan cost missing")
	}
	rep := isum.Report(o, w, tuned.Config)
	if len(rep.Queries) != w.Len() || rep.ImprovementPct <= 0 {
		t.Fatalf("report = %d queries, %.1f%%", len(rep.Queries), rep.ImprovementPct)
	}

	ic := isum.NewIncremental(gen.Cat, isum.DefaultOptions(), 5)
	ic.Observe(w.Queries[:20])
	ic.Observe(w.Queries[20:])
	if ic.Pool().Len() != 5 || ic.Seen() != 44 {
		t.Fatalf("incremental pool=%d seen=%d", ic.Pool().Len(), ic.Seen())
	}
}

// TestAllBenchmarksEndToEnd runs the full pipeline on every benchmark
// generator through the public API.
func TestAllBenchmarksEndToEnd(t *testing.T) {
	gens := []*isum.BenchmarkGenerator{
		isum.TPCH(1), isum.TPCDS(1), isum.DSB(1), isum.RealM(3),
	}
	for _, gen := range gens {
		gen := gen
		t.Run(gen.Name, func(t *testing.T) {
			w, err := gen.Workload(40, 1)
			if err != nil {
				t.Fatal(err)
			}
			o := isum.NewOptimizer(gen.Cat)
			o.FillCosts(w)
			cw, _ := compress(t, w, 6)
			opts := isum.DefaultAdvisorOptions()
			opts.MaxIndexes = 8
			tuned := tune(t, o, cw, opts)
			pct, _, _ := evaluate(t, o, w, tuned.Config)
			if pct <= 0 {
				t.Fatalf("%s: no improvement (%f)", gen.Name, pct)
			}
			if pct > 100 {
				t.Fatalf("%s: impossible improvement %f", gen.Name, pct)
			}
		})
	}
}

// TestFacadeSerialization round-trips a catalog, a workload log, and a
// configuration through the public load/save APIs.
func TestFacadeSerialization(t *testing.T) {
	gen := isum.TPCH(1)
	w, _ := gen.Workload(10, 1)
	o := isum.NewOptimizer(gen.Cat)
	o.FillCosts(w)

	var catBuf, wBuf, cfgBuf bytes.Buffer
	if err := gen.Cat.SaveJSON(&catBuf); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(&wBuf); err != nil {
		t.Fatal(err)
	}
	cat2, err := isum.LoadCatalog(&catBuf)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := isum.LoadWorkload(cat2, &wBuf)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Len() != w.Len() || w2.TotalCost() != w.TotalCost() {
		t.Fatal("workload round trip lost data")
	}

	cw, _ := compress(t, w2, 3)
	opts := isum.DefaultAdvisorOptions()
	opts.MaxIndexes = 4
	tuned := tune(t, isum.NewOptimizer(cat2), cw, opts)
	if err := tuned.Config.SaveJSON(&cfgBuf); err != nil {
		t.Fatal(err)
	}
	cfg2, err := isum.LoadConfiguration(&cfgBuf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.Fingerprint() != tuned.Config.Fingerprint() {
		t.Fatal("configuration round trip lost data")
	}

	sw, err := isum.LoadSQLScript(cat2, strings.NewReader(
		"SELECT o_totalprice FROM orders WHERE o_custkey = 3; SELECT 1;"))
	if err != nil {
		t.Fatal(err)
	}
	if sw.Len() != 2 {
		t.Fatalf("script len = %d", sw.Len())
	}
}

// TestFacadeFailureModel exercises the DESIGN.md §9 surface through the
// public names: anytime partials.
func TestFacadeFailureModel(t *testing.T) {
	gen := isum.TPCH(1)
	w, err := gen.Workload(44, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := isum.NewOptimizer(gen.Cat)
	o.FillCosts(w)

	cw, res := compress(t, w, 6)
	if res.Partial || cw.Len() != 6 {
		t.Fatalf("background Compress: partial=%v len=%d", res.Partial, cw.Len())
	}

	// A cancelled context yields an anytime partial, never an error.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, pres, err := isum.Compress(cancelled, w, 6)
	if err != nil || !pres.Partial {
		t.Fatalf("cancelled Compress: err=%v partial=%v", err, pres.Partial)
	}
	if !isum.IsCancellation(cancelled.Err()) {
		t.Fatal("IsCancellation")
	}
}

// TestCompressInvalidCostIsError: a library caller's workload with a NaN,
// infinite or negative cost makes Compress return an error naming the
// query, not panic.
func TestCompressInvalidCostIsError(t *testing.T) {
	gen := isum.TPCH(1)
	for _, bad := range []float64{math.NaN(), math.Inf(1), -1} {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			w, err := gen.Workload(50, 1)
			if err != nil {
				t.Fatal(err)
			}
			isum.NewOptimizer(gen.Cat).FillCosts(w)
			w.Queries[7].Cost = bad
			_, _, err = isum.Compress(context.Background(), w, 6)
			if want := fmt.Sprintf("core: query 7: invalid cost %v", bad); err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("Compress with cost %v: err = %v, want prefix %q", bad, err, want)
			}
		})
	}
}
