package isum_test

import (
	"context"
	"fmt"

	"isum"
)

// ExampleCompress shows the standard pipeline: build a workload with costs,
// compress it, tune the compressed workload, evaluate on the original.
func ExampleCompress() {
	ctx := context.Background()
	gen := isum.TPCH(1)
	w, _ := gen.Workload(44, 1)
	o := isum.NewOptimizer(gen.Cat)
	o.FillCosts(w)

	cw, res, err := isum.Compress(ctx, w, 4)
	if err != nil {
		panic(err)
	}
	fmt.Println("selected", len(res.Indices), "queries from", w.Len())

	opts := isum.DefaultAdvisorOptions()
	opts.MaxIndexes = 8
	tuned, err := isum.Tune(ctx, o, cw, opts)
	if err != nil {
		panic(err)
	}
	pct, _, _, err := isum.Evaluate(ctx, o, w, tuned.Config)
	if err != nil {
		panic(err)
	}
	fmt.Println("improved:", pct > 0)
	// Output:
	// selected 4 queries from 44
	// improved: true
}

// ExampleNewWorkload builds a workload over a user-defined catalog.
func ExampleNewWorkload() {
	cat := isum.NewCatalog()
	t := isum.NewCatalogTable("items", 50000)
	t.AddColumn(&isum.Column{Name: "id", DistinctCount: 50000, Min: 1, Max: 50000})
	t.AddColumn(&isum.Column{Name: "price", DistinctCount: 900, Min: 0, Max: 100})
	cat.AddTable(t)

	w, err := isum.NewWorkload(cat, []string{
		"SELECT price FROM items WHERE id = 7",
	})
	fmt.Println(err == nil, w.Len())
	// Output: true 1
}

// ExampleNewIncremental processes a stream in batches with a bounded pool.
func ExampleNewIncremental() {
	gen := isum.TPCH(1)
	w, _ := gen.Workload(40, 1)
	isum.NewOptimizer(gen.Cat).FillCosts(w)

	ic := isum.NewIncremental(gen.Cat, isum.DefaultOptions(), 5)
	ic.Observe(w.Queries[:20])
	ic.Observe(w.Queries[20:])
	fmt.Println(ic.Pool().Len(), ic.Seen())
	// Output: 5 40
}
