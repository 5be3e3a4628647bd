package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"isum/internal/cost"
	"isum/internal/workload"
)

func TestIncrementalPoolBounded(t *testing.T) {
	w := testWorkload(t)
	ic := NewIncremental(w.Catalog, DefaultOptions(), 4)
	for i := 0; i < w.Len(); i += 4 {
		end := i + 4
		if end > w.Len() {
			end = w.Len()
		}
		res, err := ic.ObserveContext(context.Background(), w.Queries[i:end])
		if err != nil {
			t.Fatal(err)
		}
		if ic.Pool().Len() > 4 {
			t.Fatalf("pool exceeded bound: %d", ic.Pool().Len())
		}
		if len(res.Indices) != ic.Pool().Len() {
			t.Fatal("result/pool mismatch")
		}
	}
	if ic.Seen() != w.Len() {
		t.Fatalf("seen = %d, want %d", ic.Seen(), w.Len())
	}
	if ic.Pool().Len() != 4 {
		t.Fatalf("final pool = %d", ic.Pool().Len())
	}
}

func TestIncrementalCoversClustersEventually(t *testing.T) {
	// Feed clusters one at a time; the final pool must represent all three,
	// even the ones observed early.
	w := testWorkload(t)
	ic := NewIncremental(w.Catalog, DefaultOptions(), 3)
	for _, cluster := range [][]*workload.Query{w.Queries[0:6], w.Queries[6:12], w.Queries[12:16]} {
		if _, err := ic.ObserveContext(context.Background(), cluster); err != nil {
			t.Fatal(err)
		}
	}

	tables := map[string]bool{}
	for _, q := range ic.Pool().Queries {
		for _, t := range q.Info.Tables {
			tables[t] = true
		}
	}
	if len(tables) < 2 {
		t.Fatalf("pool lost earlier clusters: tables = %v", tables)
	}
}

func TestIncrementalWeightsAccumulate(t *testing.T) {
	// Many instances of one template across batches: the surviving
	// representative should carry large weight relative to a singleton.
	cat := testCatalog()
	var sqls []string
	for i := 0; i < 12; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT o_totalprice FROM orders WHERE o_orderkey = %d", i+1))
	}
	sqls = append(sqls, "SELECT c_custkey FROM customer WHERE c_nationkey = 3")
	w, err := workload.New(cat, sqls)
	if err != nil {
		t.Fatal(err)
	}
	if err := cost.NewOptimizer(cat).FillCostsCtx(context.Background(), w, 0); err != nil {
		t.Fatal(err)
	}

	ic := NewIncremental(cat, DefaultOptions(), 2)
	for _, batch := range [][]*workload.Query{w.Queries[0:6], w.Queries[6:13]} {
		if _, err := ic.ObserveContext(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	pool := ic.Pool()
	if pool.Len() != 2 {
		t.Fatalf("pool = %d", pool.Len())
	}
	var wTemplate, wSingleton float64
	for _, q := range pool.Queries {
		if q.Info.Tables[0] == "orders" {
			wTemplate = q.Weight
		} else {
			wSingleton = q.Weight
		}
	}
	if wTemplate <= wSingleton {
		t.Fatalf("template representative should dominate: %f vs %f", wTemplate, wSingleton)
	}
}

// ObserveContext honours the anytime contract: cancellation yields a
// valid Partial result, never an error, and a cancellation that struck
// before any selection keeps the previous pool intact.
func TestObserveContextAnytime(t *testing.T) {
	w := testWorkload(t)
	ic := NewIncremental(w.Catalog, DefaultOptions(), 3)
	if _, err := ic.ObserveContext(context.Background(), w.Queries[0:6]); err != nil {
		t.Fatal(err)
	}
	before := ic.Pool()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ic.ObserveContext(ctx, w.Queries[6:12])
	if err != nil {
		t.Fatalf("cancellation must not be an error: %v", err)
	}
	if !res.Partial {
		t.Fatal("cancelled recompression should be marked Partial")
	}
	if ic.Seen() != 12 {
		t.Fatalf("seen = %d: the batch was observed even if not folded", ic.Seen())
	}
	if len(res.Indices) == 0 && ic.Pool() != before {
		t.Fatal("empty partial selection must keep the previous pool")
	}

	// An uncancelled ObserveContext folds the batch.
	res2, err := ic.ObserveContext(context.Background(), w.Queries[12:16])
	if err != nil || res2.Partial {
		t.Fatalf("clean fold: %v partial=%v", err, res2.Partial)
	}
	if ic.Pool().Len() > 3 {
		t.Fatalf("pool exceeded bound: %d", ic.Pool().Len())
	}
}

func TestIncrementalDegenerateK(t *testing.T) {
	w := testWorkload(t)
	ic := NewIncremental(w.Catalog, DefaultOptions(), 0) // clamps to 1
	if _, err := ic.ObserveContext(context.Background(), w.Queries[:3]); err != nil {
		t.Fatal(err)
	}
	if ic.Pool().Len() != 1 {
		t.Fatalf("pool = %d", ic.Pool().Len())
	}
	// Empty batch is a no-op recompression.
	if _, err := ic.ObserveContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if ic.Pool().Len() != 1 {
		t.Fatal("empty batch should keep the pool")
	}
}

// TestIncrementalReplayDeterministic pins what restarting a killed
// incremental session rests on: rerunning it over the same input
// reproduces the pool bit for bit after every batch, at any
// parallelism. Each run rebuilds its input from the generator, as a
// restarted process would reread its log.
func TestIncrementalReplayDeterministic(t *testing.T) {
	const n, k, batch = 473, 8, 8
	type entry struct {
		id           int
		text         string
		cost, weight uint64
	}
	type snapshot struct {
		seen int
		pool []entry
	}
	run := func(t *testing.T, name string, parallelism int) []snapshot {
		w := seededWorkload(t, name, n, 1)
		opts := DefaultOptions()
		opts.Parallelism = parallelism
		ic := NewIncremental(w.Catalog, opts, k)
		var snaps []snapshot
		for i := 0; i < w.Len(); i += batch {
			if _, err := ic.ObserveContext(context.Background(), w.Queries[i:min(i+batch, w.Len())]); err != nil {
				t.Fatal(err)
			}
			s := snapshot{seen: ic.Seen()}
			for _, q := range ic.Pool().Queries {
				s.pool = append(s.pool, entry{q.ID, q.Text, math.Float64bits(q.Cost), math.Float64bits(q.Weight)})
			}
			snaps = append(snaps, s)
		}
		return snaps
	}
	for _, name := range []string{"tpch", "tpcds", "scalem"} {
		t.Run(name, func(t *testing.T) {
			ref := run(t, name, 1)
			for _, p := range []int{1, 4} {
				got := run(t, name, p)
				for b := range ref {
					if got[b].seen != ref[b].seen {
						t.Fatalf("parallelism %d, batch %d: seen %d, want %d", p, b, got[b].seen, ref[b].seen)
					}
					if !slices.Equal(got[b].pool, ref[b].pool) {
						t.Fatalf("parallelism %d, batch %d: pool differs from the serial run's\n got %v\nwant %v", p, b, got[b].pool, ref[b].pool)
					}
				}
			}
		})
	}
}

// TestIncrementalMatchesOneShot pins that a recompression is an ordinary
// compression: on the five generators, every ObserveContext call returns
// exactly what New(opts).CompressContext(ctx, pool ∪ batch, k) returns —
// equal indices and rounds, bit-equal weights and selection benefits.
// Each recompression builds its own feature dictionary, so nothing carried
// between calls but the pool can move a bit.
func TestIncrementalMatchesOneShot(t *testing.T) {
	const n, k, batch = 473, 8, 8
	for _, name := range []string{"tpch", "tpcds", "dsb", "realm", "scalem"} {
		t.Run(name, func(t *testing.T) {
			w := seededWorkload(t, name, n, 1)
			opts := DefaultOptions()
			ic := NewIncremental(w.Catalog, opts, k)
			for i := 0; i < w.Len(); i += batch {
				b := w.Queries[i:min(i+batch, w.Len())]
				cand := &workload.Workload{Catalog: w.Catalog}
				cand.Queries = append(append(cand.Queries, ic.Pool().Queries...), b...)
				want := compress(t, New(opts), cand, k)
				got, err := ic.ObserveContext(context.Background(), b)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("batch=%d", i/batch), func(t *testing.T) { sameResult(t, got, want) })
			}
		})
	}
}
