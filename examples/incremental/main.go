// Incremental compression: process a query log in arrival batches and keep
// a bounded compressed workload across batches — a working sketch of the
// future-work direction in Section 10 (ISUM over incrementally consumed
// workloads, e.g. under a tuner time budget).
//
// Strategy: maintain a running pool of at most poolSize queries; on each
// batch, append the new arrivals and recompress the pool to k queries. The
// weights absorb the represented mass, so tuning the pool approximates
// tuning everything seen so far.
//
//	go run ./examples/incremental
package main

import (
	"context"
	"fmt"
	"log"

	"isum/internal/advisor"
	"isum/internal/benchmarks"
	"isum/internal/core"
	"isum/internal/cost"
	"isum/internal/workload"
)

func main() {
	const (
		batchSize = 64
		batches   = 5
		k         = 12 // compressed pool size carried between batches
	)

	ctx := context.Background()
	gen := benchmarks.TPCDS(10)
	full, err := gen.Workload(batchSize*batches, 1)
	if err != nil {
		log.Fatal(err)
	}
	o := cost.NewOptimizer(gen.Cat)
	if err := o.FillCostsCtx(ctx, full, 0); err != nil {
		log.Fatal(err)
	}

	aopts := advisor.DefaultOptions()
	aopts.MaxIndexes = 15
	aopts.StorageBudget = 3 * gen.Cat.TotalSizeBytes()

	// The library's incremental compressor keeps a bounded pool of weighted
	// representatives across batches.
	ic := core.NewIncremental(gen.Cat, core.DefaultOptions(), k)
	seen := &workload.Workload{Catalog: gen.Cat}

	for b := 0; b < batches; b++ {
		batch := full.Queries[b*batchSize : (b+1)*batchSize]
		seen.Queries = append(seen.Queries, batch...)
		res, err := ic.ObserveContext(ctx, batch)
		if err != nil {
			log.Fatal(err)
		}

		// Tune the pool and evaluate against everything seen so far.
		tuned, err := advisor.New(o, aopts).TuneContext(ctx, ic.Pool())
		if err != nil {
			log.Fatal(err)
		}
		pct, _, _, err := advisor.EvaluateImprovementContext(ctx, o, seen, tuned.Config, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("batch %d: seen %3d queries, pool %2d, compression %v, improvement on seen: %.1f%%\n",
			b+1, seen.Len(), ic.Pool().Len(), res.Elapsed.Round(1000), pct)
	}

	// Reference: one-shot compression of the entire workload.
	res, err := core.New(core.DefaultOptions()).CompressContext(ctx, full, k)
	if err != nil {
		log.Fatal(err)
	}
	cw := full.WeightedSubset(res.Indices, res.Weights)
	tuned, err := advisor.New(o, aopts).TuneContext(ctx, cw)
	if err != nil {
		log.Fatal(err)
	}
	pct, _, _, err := advisor.EvaluateImprovementContext(ctx, o, full, tuned.Config, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\none-shot reference (same k=%d): %.1f%%\n", k, pct)
}
