package cost

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"isum/internal/catalog"
	"isum/internal/index"
	"isum/internal/workload"
)

func mustQueryf(t *testing.T, cat *catalog.Catalog, pat string, args ...any) *workload.Query {
	t.Helper()
	return mustQuery(t, cat, fmt.Sprintf(pat, args...))
}

// TestOptimizerConcurrentCost hammers the optimizer from many
// goroutines; run with -race to validate the locking.
func TestOptimizerConcurrentCost(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	queries := []string{
		"SELECT l_comment FROM lineitem WHERE l_orderkey = 5",
		"SELECT o_totalprice FROM orders WHERE o_custkey = 9",
		"SELECT c_nationkey FROM customer WHERE c_custkey = 3",
	}
	cfgs := []*index.Configuration{
		nil,
		index.NewConfiguration(index.New("lineitem", "l_orderkey")),
		index.NewConfiguration(index.New("orders", "o_custkey"), index.New("customer", "c_custkey")),
	}
	// Pre-parse so goroutines never touch testing.T.
	parsed := make([]*workload.Query, len(queries))
	for i, sql := range queries {
		parsed[i] = mustQuery(t, cat, sql)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := parsed[(g+i)%len(parsed)]
				c := o.Cost(q, cfgs[i%len(cfgs)])
				if c <= 0 {
					errs <- "non-positive cost"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if o.Calls() != 8*200 {
		t.Fatalf("calls = %d, want %d", o.Calls(), 8*200)
	}
	if o.CostTime() <= 0 {
		t.Fatal("cost time not recorded")
	}
}

// TestOptimizerShardedCacheStress hammers a larger query/configuration
// cross product than shard count, so the compiled plans of many texts are
// built and read concurrently, reads the atomic counters *while* the
// optimizer is being hammered (the old mutex design deadlocked value
// here), and then replays the same access pattern: every call must return
// bitwise the cost the first round computed, and a fresh optimizer's
// serial cost. No call is answered from a result cache, so plans equal
// calls.
func TestOptimizerShardedCacheStress(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)

	var queries []*workload.Query
	sqls := []string{
		"SELECT l_comment FROM lineitem WHERE l_orderkey = %d",
		"SELECT o_totalprice FROM orders WHERE o_custkey = %d",
		"SELECT c_nationkey FROM customer WHERE c_custkey = %d",
		"SELECT l_quantity FROM lineitem WHERE l_suppkey = %d",
	}
	for _, pat := range sqls {
		for v := 0; v < 24; v++ {
			queries = append(queries, mustQueryf(t, cat, pat, v))
		}
	}
	cfgs := []*index.Configuration{
		nil,
		index.NewConfiguration(index.New("lineitem", "l_orderkey")),
		index.NewConfiguration(index.New("lineitem", "l_suppkey", "l_orderkey")),
		index.NewConfiguration(index.New("orders", "o_custkey")),
		index.NewConfiguration(index.New("customer", "c_custkey"), index.New("orders", "o_custkey")),
	}

	const workers, rounds = 16, 200
	// costs[g][i] is worker g's i-th cost; each worker writes only its own row.
	hammer := func() [][]float64 {
		costs := make([][]float64, workers)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			costs[g] = make([]float64, rounds)
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					q := queries[(g*7+i)%len(queries)]
					costs[g][i] = o.Cost(q, cfgs[(g+i)%len(cfgs)])
				}
			}(g)
		}
		// Concurrent counter reads must not block or race with Cost.
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 100; i++ {
				if o.Plans() > o.Calls() {
					// Plans can transiently lag calls but never exceed them.
					t.Error("plans exceeded calls")
					return
				}
				_ = o.CostTime()
			}
		}()
		wg.Wait()
		<-done
		return costs
	}

	first := hammer()
	if o.Calls() != workers*rounds || o.Plans() != o.Calls() {
		t.Fatalf("calls = %d, plans = %d, want %d each", o.Calls(), o.Plans(), workers*rounds)
	}
	replay := hammer()
	serial := NewOptimizer(cat)
	for g := range first {
		for i, c := range first[g] {
			q, cfg := queries[(g*7+i)%len(queries)], cfgs[(g+i)%len(cfgs)]
			if math.Float64bits(replay[g][i]) != math.Float64bits(c) {
				t.Fatalf("worker %d call %d: replay cost %v != first %v", g, i, replay[g][i], c)
			}
			if want := serial.Cost(q, cfg); math.Float64bits(c) != math.Float64bits(want) {
				t.Fatalf("worker %d call %d: concurrent cost %v != serial %v", g, i, c, want)
			}
		}
	}
	if o.Calls() != 2*workers*rounds || o.Plans() != o.Calls() {
		t.Fatalf("after replay calls = %d, plans = %d, want %d each", o.Calls(), o.Plans(), 2*workers*rounds)
	}

	o.ResetCounters()
	if o.Calls() != 0 || o.Plans() != 0 || o.CostTime() != 0 {
		t.Fatal("ResetCounters left residue")
	}
}

// TestWorkloadCostParallelDeterminism checks the ordered-reduction
// guarantee: WorkloadCostCtx returns bit-identical sums at any
// parallelism, and FillCostsCtx matches serial filling.
func TestWorkloadCostParallelDeterminism(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	ctx := context.Background()
	w := &workload.Workload{Catalog: cat}
	for v := 0; v < 40; v++ {
		q := mustQueryf(t, cat, "SELECT o_totalprice FROM orders WHERE o_custkey = %d", v)
		q.Weight = 1 + float64(v%5)
		w.Queries = append(w.Queries, q)
	}
	cfg := index.NewConfiguration(index.New("orders", "o_custkey"))

	want, err := o.WorkloadCostCtx(ctx, w, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want <= 0 {
		t.Fatal("non-positive workload cost")
	}
	for _, p := range []int{0, 2, 8} {
		got, err := o.WorkloadCostCtx(ctx, w, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("parallelism %d: workload cost %v != serial %v", p, got, want)
		}
	}

	if err := o.FillCostsCtx(ctx, w, 1); err != nil {
		t.Fatal(err)
	}
	serial := make([]float64, len(w.Queries))
	for i, q := range w.Queries {
		serial[i] = q.Cost
	}
	if err := o.FillCostsCtx(ctx, w, 8); err != nil {
		t.Fatal(err)
	}
	for i, q := range w.Queries {
		if q.Cost != serial[i] {
			t.Fatalf("query %d: parallel fill %v != serial %v", i, q.Cost, serial[i])
		}
	}
}
