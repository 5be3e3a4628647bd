// Custom workload: build your own catalog and SQL workload, compare
// compression algorithms on it, and inspect ISUM's query features.
//
// This is the path a user takes to apply ISUM to their own system: define
// schema + statistics, hand over the query log with costs, compress.
//
//	go run ./examples/custom_workload
package main

import (
	"context"
	"fmt"
	"log"

	"isum/internal/advisor"
	"isum/internal/catalog"
	"isum/internal/compress"
	"isum/internal/core"
	"isum/internal/cost"
	"isum/internal/features"
	"isum/internal/storage"
	"isum/internal/workload"
)

// buildCatalog declares the schema with value *distributions*; the storage
// package samples them, builds histograms, and estimates distinct counts —
// the statistics a real engine's ANALYZE would produce.
func buildCatalog() *catalog.Catalog {
	cat := catalog.New()
	dmin, _ := workload.ParseDateDays("2023-01-01")
	dmax, _ := workload.ParseDateDays("2024-12-31")

	must := func(_ *catalog.Table, err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(storage.Populate(cat, storage.TableSpec{
		Name: "users", Rows: 2_000_000,
		Columns: []storage.ColumnSpec{
			{Name: "id", Type: catalog.TypeInt, Dist: &storage.Sequential{}},
			{Name: "country", Type: catalog.TypeString, Dist: storage.Categorical{K: 120, Skew: 1}},
			{Name: "signup_score", Type: catalog.TypeInt, Dist: storage.Normal{Mean: 50, Std: 18}},
		},
	}, 1))
	must(storage.Populate(cat, storage.TableSpec{
		Name: "events", Rows: 80_000_000,
		Columns: []storage.ColumnSpec{
			{Name: "id", Type: catalog.TypeInt, Dist: &storage.Sequential{}},
			{Name: "user_id", Type: catalog.TypeInt, Dist: storage.Zipf{N: 2_000_000, S: 1.3}},
			{Name: "kind", Type: catalog.TypeString, Dist: storage.Categorical{K: 40, Skew: 1.5}},
			{Name: "amount", Type: catalog.TypeDecimal, Dist: storage.Zipf{N: 10_000, S: 1.1}},
			{Name: "occurred_at", Type: catalog.TypeDate, Dist: storage.Uniform{Min: dmin, Max: dmax}},
		},
	}, 2))
	return cat
}

func main() {
	ctx := context.Background()
	cat := buildCatalog()

	// A mixed OLTP/analytics log. In production you would harvest this from
	// your query store together with the optimizer-estimated costs; here we
	// let the built-in what-if optimizer fill the costs.
	var sqls []string
	for day := 1; day <= 12; day++ {
		sqls = append(sqls, fmt.Sprintf(
			"SELECT amount FROM events WHERE user_id = %d AND occurred_at >= '2024-%02d-01'", day*777, day))
	}
	for score := 90; score < 96; score++ {
		sqls = append(sqls, fmt.Sprintf(
			"SELECT id FROM users WHERE signup_score > %d AND country = 'DE'", score))
	}
	for m := 1; m <= 6; m++ {
		sqls = append(sqls, fmt.Sprintf(
			`SELECT u.country, SUM(e.amount) FROM users u, events e
			 WHERE u.id = e.user_id AND e.kind = 'purchase' AND e.occurred_at >= '2024-%02d-01'
			 GROUP BY u.country ORDER BY u.country`, m))
	}

	w, err := workload.New(cat, sqls)
	if err != nil {
		log.Fatal(err)
	}
	o := cost.NewOptimizer(cat)
	if err := o.FillCostsCtx(ctx, w, 0); err != nil {
		log.Fatal(err)
	}

	// Peek at ISUM's featurization of one query.
	ex := features.NewExtractor(cat)
	fmt.Println("features of the join query:")
	for _, f := range ex.Features(w.Queries[len(sqls)-1]) {
		fmt.Printf("  %-22s %.3f\n", f.Key, f.W)
	}

	// Compare compressors at k=5.
	k := 5
	aopts := advisor.DefaultOptions()
	aopts.MaxIndexes = 8
	compressors := []compress.Compressor{
		&compress.Uniform{Seed: 3},
		&compress.CostTopK{},
		&compress.GSUM{},
		core.New(core.DefaultOptions()),
	}
	fmt.Printf("\nimprovement on the full %d-query workload after tuning %d selected queries:\n", w.Len(), k)
	for _, c := range compressors {
		res, err := c.CompressContext(ctx, w, k)
		if err != nil {
			log.Fatal(err)
		}
		cw := w.WeightedSubset(res.Indices, res.Weights)
		tuned, err := advisor.New(o, aopts).TuneContext(ctx, cw)
		if err != nil {
			log.Fatal(err)
		}
		pct, _, _, err := advisor.EvaluateImprovementContext(ctx, o, w, tuned.Config, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s %.1f%%  (picked %v)\n", c.Name(), pct, res.Indices)
	}
}
