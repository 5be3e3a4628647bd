// Advisor comparison: tune the same ISUM-compressed workload with the
// DTA-style and DEXTER-style advisors and compare recommendations — the
// generalisation experiment of Section 8.3.
//
//	go run ./examples/advisor_compare
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
	gen := benchmarks.DSB(10)
	w, err := gen.Workload(208, 1)
	if err != nil {
		log.Fatal(err)
	}
	o := cost.NewOptimizer(gen.Cat)
	if err := o.FillCostsCtx(ctx, w, 0); err != nil {
		log.Fatal(err)
	}

	cres, err := core.New(core.ISUMSOptions()).CompressContext(ctx, w, 12)
	if err != nil {
		log.Fatal(err)
	}
	compressed := w.WeightedSubset(cres.Indices, cres.Weights)
	fmt.Printf("DSB workload: %d queries compressed to %d\n\n", w.Len(), compressed.Len())

	for _, mode := range []struct {
		name string
		opts advisor.Options
	}{
		{"DTA-style", func() advisor.Options {
			op := advisor.DefaultOptions()
			op.MaxIndexes = 15
			op.StorageBudget = 3 * gen.Cat.TotalSizeBytes()
			return op
		}()},
		{"DEXTER-style", advisor.DexterOptions()},
	} {
		res, err := advisor.New(o, mode.opts).TuneContext(ctx, compressed)
		if err != nil {
			log.Fatal(err)
		}
		pct, _, _, err := advisor.EvaluateImprovementContext(ctx, o, w, res.Config, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s advisor: %d indexes, %d optimizer calls, %v\n",
			mode.name, res.Config.Len(), res.OptimizerCalls, res.Elapsed)
		for _, ix := range res.Config.Indexes() {
			fmt.Println("   ", ix)
		}
		fmt.Printf("  improvement on full workload: %.1f%%\n\n", pct)
	}
}
