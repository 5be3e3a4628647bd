package isum_test

// One benchmark per table and figure of the paper's evaluation (Section 8),
// each regenerating the corresponding result via the experiments harness in
// fast mode, plus micro-benchmarks for the hot paths (parsing, feature
// extraction, weighted Jaccard, what-if costing, greedy compression,
// advisor tuning).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Individual figures: go test -bench=BenchmarkFig9a

import (
	"bytes"
	"context"
	"io"
	"testing"

	"isum/internal/advisor"
	"isum/internal/benchmarks"
	"isum/internal/core"
	"isum/internal/cost"
	"isum/internal/experiments"
	"isum/internal/features"
	"isum/internal/index"
	"isum/internal/sqlparser"
	"isum/internal/workload"
)

// runExperiment drives one registered experiment per iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(experiments.FastConfig())
		if err := experiments.Run(env, id, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- one bench per paper table/figure ----

func BenchmarkFig2_TuningScalability(b *testing.B)    { runExperiment(b, "fig2") }
func BenchmarkFig3_CompressionImpact(b *testing.B)    { runExperiment(b, "fig3") }
func BenchmarkFig5_UtilityCorrelation(b *testing.B)   { runExperiment(b, "fig5") }
func BenchmarkFig6_BenefitCorrelation(b *testing.B)   { runExperiment(b, "fig6") }
func BenchmarkFig7_SimilarityMeasures(b *testing.B)   { runExperiment(b, "fig7") }
func BenchmarkFig8_SummaryFeatures(b *testing.B)      { runExperiment(b, "fig8") }
func BenchmarkFig9a_CompressedSizeSweep(b *testing.B) { runExperiment(b, "fig9a") }
func BenchmarkFig9b_ConfigSizeSweep(b *testing.B)     { runExperiment(b, "fig9b") }
func BenchmarkFig10_StorageBudget(b *testing.B)       { runExperiment(b, "fig10") }
func BenchmarkFig11_AlgorithmEfficiency(b *testing.B) { runExperiment(b, "fig11") }
func BenchmarkFig12_WorkloadSensitivity(b *testing.B) { runExperiment(b, "fig12") }
func BenchmarkFig13_UpdateStrategies(b *testing.B)    { runExperiment(b, "fig13") }
func BenchmarkFig14_WeighingStrategies(b *testing.B)  { runExperiment(b, "fig14") }
func BenchmarkFig15_DexterAdvisor(b *testing.B)       { runExperiment(b, "fig15") }
func BenchmarkTable2_WorkloadSummary(b *testing.B)    { runExperiment(b, "table2") }
func BenchmarkTable3_EstimatorCorrelation(b *testing.B) {
	runExperiment(b, "table3")
}

// Implementation-ablation extras (DESIGN.md §5).

func BenchmarkExtraNormAblation(b *testing.B)    { runExperiment(b, "extra-norm") }
func BenchmarkExtraAdvisorAblation(b *testing.B) { runExperiment(b, "extra-advisor") }
func BenchmarkExtraIncremental(b *testing.B)     { runExperiment(b, "extra-incremental") }

// ---- micro-benchmarks of the hot paths ----

func benchWorkload(b *testing.B, n int) (*workload.Workload, *cost.Optimizer) {
	b.Helper()
	gen := benchmarks.TPCH(10)
	w, err := gen.Workload(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	o := cost.NewOptimizer(gen.Cat)
	fillCosts(b, o, w)
	return w, o
}

func BenchmarkParseTPCHQuery(b *testing.B) {
	gen := benchmarks.TPCH(1)
	w, err := gen.Workload(22, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparser.Parse(w.Queries[i%22].Text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeQuery(b *testing.B) {
	gen := benchmarks.TPCH(1)
	w, err := gen.Workload(22, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.Queries[i%22]
		if _, err := workload.Analyze(gen.Cat, q.Stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoad is the ingest path a tuning session starts with: decode
// a seed-1 log with its input costs, as the end-to-end benchmark's
// workloads serialise it, then parse, analyse and fingerprint every entry.
// The logs differ in how often a statement shape repeats: scalem-10k has
// ~5.9 instances per shape and tpch-2200 has 100, so the two size the
// shape cache (DESIGN.md §19) at both ends, and tpcds-92 (91 shapes in
// 92 entries) is the log it bypasses. The log's bytes are built once,
// outside the timer.
func BenchmarkLoad(b *testing.B) {
	for _, c := range []struct {
		name string
		gen  *benchmarks.Generator
		n    int
	}{
		{"scalem-10k", benchmarks.ScaleM(1, benchmarks.ScaleMDefaultTemplates), 10000},
		{"tpch-2200", benchmarks.TPCH(10), 2200},
		{"tpcds-92", benchmarks.TPCDS(10), 92},
	} {
		b.Run(c.name, func(b *testing.B) {
			w, err := c.gen.Workload(c.n, 1)
			if err != nil {
				b.Fatal(err)
			}
			fillCosts(b, cost.NewOptimizer(c.gen.Cat), w)
			var buf bytes.Buffer
			if err := w.Save(&buf); err != nil {
				b.Fatal(err)
			}
			log := buf.Bytes()
			b.SetBytes(int64(len(log)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := workload.Load(c.gen.Cat, bytes.NewReader(log)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFeatureExtraction(b *testing.B) {
	gen := benchmarks.TPCH(1)
	w, err := gen.Workload(22, 1)
	if err != nil {
		b.Fatal(err)
	}
	ex := features.NewExtractor(gen.Cat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Features(w.Queries[i%22])
	}
}

func BenchmarkWhatIfCost(b *testing.B) {
	w, o := benchWorkload(b, 22)
	cfg := index.NewConfiguration(
		index.New("lineitem", "l_shipdate").WithIncludes("l_extendedprice", "l_discount"),
		index.New("lineitem", "l_orderkey"),
		index.New("orders", "o_orderdate").WithIncludes("o_custkey"),
		index.New("customer", "c_mktsegment"),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Cost(w.Queries[i%22], cfg)
	}
}

// BenchmarkFillCosts is the set-up path: a fresh optimizer costs each of
// 10 000 Scale-M queries once under the current design, so every call is
// a cold plan computation (the compiled plan's skeleton build included).
func BenchmarkFillCosts(b *testing.B) {
	gen := benchmarks.ScaleM(1, benchmarks.ScaleMDefaultTemplates)
	w, err := gen.Workload(10000, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cost.NewOptimizer(gen.Cat).FillCostsCtx(ctx, w, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressSummary(b *testing.B) {
	w, _ := benchWorkload(b, 110)
	comp := core.New(core.DefaultOptions())
	b.ResetTimer()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := comp.CompressContext(ctx, w, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressAllPairs(b *testing.B) {
	w, _ := benchWorkload(b, 110)
	opts := core.DefaultOptions()
	opts.Algorithm = core.AllPairs
	comp := core.New(opts)
	b.ResetTimer()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := comp.CompressContext(ctx, w, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdvisorTune(b *testing.B) {
	w, o := benchWorkload(b, 44)
	opts := advisor.DefaultOptions()
	opts.MaxIndexes = 10
	b.ResetTimer()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := advisor.New(o, opts).TuneContext(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
}
