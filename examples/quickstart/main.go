// Quickstart: compress a TPC-H workload with ISUM, tune the compressed
// workload, and measure the improvement on the full workload.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"isum/internal/advisor"
	"isum/internal/benchmarks"
	"isum/internal/core"
	"isum/internal/cost"
)

func main() {
	ctx := context.Background()

	// 1. A workload: 220 TPC-H query instances (22 templates × 10 parameter
	// bindings) over the sf=10 catalog, with optimizer-estimated costs —
	// exactly the input contract of the paper (Section 2.2).
	gen := benchmarks.TPCH(10)
	w, err := gen.Workload(220, 1)
	if err != nil {
		log.Fatal(err)
	}
	optimizer := cost.NewOptimizer(gen.Cat)
	if err := optimizer.FillCostsCtx(ctx, w, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input workload: %d queries, %d templates, total cost %.0f\n",
		w.Len(), w.NumTemplates(), w.TotalCost())

	// 2. Compress to 16 queries with ISUM (linear-time summary-features
	// algorithm, rule-based weights, template-aware weighing).
	compressor := core.New(core.DefaultOptions())
	res, err := compressor.CompressContext(ctx, w, 16)
	if err != nil {
		log.Fatal(err)
	}
	compressed := w.WeightedSubset(res.Indices, res.Weights)
	fmt.Printf("compressed to %d queries in %v\n", compressed.Len(), res.Elapsed)
	for i, idx := range res.Indices {
		fmt.Printf("  picked query #%-3d (weight %.3f): %.60s...\n",
			idx, res.Weights[i], w.Queries[idx].Text)
	}

	// 3. Tune the compressed workload with the DTA-style advisor.
	opts := advisor.DefaultOptions()
	opts.MaxIndexes = 20
	opts.StorageBudget = 3 * gen.Cat.TotalSizeBytes()
	tuned, err := advisor.New(optimizer, opts).TuneContext(ctx, compressed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecommended %d indexes (%d optimizer calls, %v):\n",
		tuned.Config.Len(), tuned.OptimizerCalls, tuned.Elapsed)
	for _, ix := range tuned.Config.Indexes() {
		fmt.Println("  ", ix)
	}

	// 4. Evaluate on the FULL workload — the paper's metric.
	pct, base, final, err := advisor.EvaluateImprovementContext(ctx, optimizer, w, tuned.Config, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull-workload improvement: %.1f%% (cost %.0f -> %.0f)\n", pct, base, final)
}
