package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"isum/internal/benchmarks"
	"isum/internal/catalog"
	"isum/internal/cost"
	"isum/internal/workload"
)

// spec is one benchmark workload: a query-log generator and the pipeline
// run on each log. The catalog and templates are fixed; the run's seed
// drives only the query instances' parameter bindings, so a seed changes
// the log the way a different day of the same application would.
type spec struct {
	name string
	gen  func() *benchmarks.Generator
	// n is the number of query instances in each log.
	n int
	// k is the compressed size; 0 tunes the full workload (no compression).
	k int
	// logs is the number of query logs a run builds, each from its own
	// seed. Averaging over several logs keeps a run's figures from hanging
	// on one log's parameter draw.
	logs int
	// compareK, on a no-compression workload, is the compressed size the
	// derived headline figures (time ratio, quality gap) compare against.
	compareK int
}

func tpch() *benchmarks.Generator  { return benchmarks.TPCH(10) }
func tpcds() *benchmarks.Generator { return benchmarks.TPCDS(10) }
func scalem() *benchmarks.Generator {
	return benchmarks.ScaleM(1, benchmarks.ScaleMDefaultTemplates)
}

// specs are the benchmark's workloads; README.md gives the reason for each.
var specs = []spec{
	{name: "tpch-2200", gen: tpch, n: 2200, k: 23, logs: 8},
	{name: "scalem-10k", gen: scalem, n: 10000, k: 50, logs: 6},
	{name: "tpcds-fig3-full", gen: tpcds, n: 92, k: 0, logs: 16, compareK: 24},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// logSeedStride separates the seeds of one run's logs, so that log 0 of
// seed s uses seed s itself (seed 1 reproduces the experiments' workloads)
// and runs with small, distinct seeds never share a log.
const logSeedStride = 1 << 20

// queryLog is one generated input: the catalog and the JSON query log
// (SQL plus optimizer-estimated input costs, the paper's §2.2 contract).
type queryLog struct {
	seed      int64
	cat       *catalog.Catalog
	budget    int64 // storage budget: 3× the database size
	data      []byte
	queries   int
	templates int
}

// load parses and analyses the log, as a tuning session reads its input.
func (lg *queryLog) load() (*workload.Workload, error) {
	return workload.Load(lg.cat, bytes.NewReader(lg.data))
}

// setUp builds one log: catalog, SQL, input costs from a set-up-only
// optimizer, and the serialised log bytes. It returns the log and the time
// the build took.
func setUp(ctx context.Context, sp spec, seed int64) (*queryLog, time.Duration, error) {
	start := time.Now() //lint:allow determinism set-up timing only; the log depends on the seed alone
	g := sp.gen()
	w, err := g.Workload(sp.n, seed)
	if err != nil {
		return nil, 0, err
	}
	if err := cost.NewOptimizer(g.Cat).FillCostsCtx(ctx, w, 0); err != nil {
		return nil, 0, fmt.Errorf("costing log: %w", err)
	}
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		return nil, 0, fmt.Errorf("serialising log: %w", err)
	}
	took := time.Since(start)
	return &queryLog{
		seed:      seed,
		cat:       g.Cat,
		budget:    3 * g.Cat.TotalSizeBytes(),
		data:      buf.Bytes(),
		queries:   w.Len(),
		templates: w.NumTemplates(),
	}, took, nil
}
