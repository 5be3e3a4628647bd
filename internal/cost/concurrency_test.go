package cost

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"isum/internal/catalog"
	"isum/internal/faults"
	"isum/internal/index"
	"isum/internal/parallel"
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

// TestPanicContainment: a panic inside WorkloadCostCtx's pool closure (a
// nil query in the workload) comes back as a *parallel.PanicError, on
// the serial path and on the pool alike, instead of crashing the
// process.
func TestPanicContainment(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	w := &workload.Workload{Catalog: cat}
	for v := 0; v < 8; v++ {
		w.Queries = append(w.Queries, mustQueryf(t, cat, "SELECT o_totalprice FROM orders WHERE o_custkey = %d", v))
	}
	w.Queries[5] = nil
	for _, p := range []int{1, 4} {
		_, err := o.WorkloadCostCtx(context.Background(), w, nil, p)
		var pe *parallel.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("parallelism %d: want *parallel.PanicError, got %T: %v", p, err, err)
		}
	}
}

// TestFailedFillLeavesWorkloadUntouched: FillCostsCtx assigns no Cost
// field unless every query was costed, so a cancelled context or a
// contained worker panic (a nil query) leaves the workload as it was, on
// the serial path and on the pool alike. A context cancelled before the
// batch makes no what-if call at all.
func TestFailedFillLeavesWorkloadUntouched(t *testing.T) {
	cat := testCatalog()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	isPanic := func(err error) bool {
		var pe *parallel.PanicError
		return errors.As(err, &pe) && !faults.IsCancellation(err)
	}
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		nilAt   int // index of a nil query, or -1 for none
		wantErr func(error) bool
		noCalls bool
	}{
		{"cancelled", cancelled, -1, faults.IsCancellation, true},
		{"panic", context.Background(), 5, isPanic, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []int{1, 4} {
				t.Run(fmt.Sprintf("parallelism=%d", p), func(t *testing.T) {
					const sentinel = 7.0
					o := NewOptimizer(cat)
					w := &workload.Workload{Catalog: cat}
					for v := 0; v < 8; v++ {
						q := mustQueryf(t, cat, "SELECT o_totalprice FROM orders WHERE o_custkey = %d", v)
						q.Cost = sentinel
						w.Queries = append(w.Queries, q)
					}
					if tc.nilAt >= 0 {
						w.Queries[tc.nilAt] = nil
					}
					err := o.FillCostsCtx(tc.ctx, w, p)
					if !tc.wantErr(err) {
						t.Fatalf("FillCostsCtx returned %T: %v", err, err)
					}
					for i, q := range w.Queries {
						if q != nil && q.Cost != sentinel {
							t.Fatalf("query %d: failed fill wrote cost %v", i, q.Cost)
						}
					}
					if tc.noCalls && o.Calls() != 0 {
						t.Fatalf("%d what-if calls under a cancelled context, want 0", o.Calls())
					}
				})
			}
		})
	}
}

// TestCancelledWorkloadCostMakesNoCall: WorkloadCostCtx under a context
// cancelled before the batch returns the cancellation and a zero cost
// without making a what-if call, at any parallelism.
func TestCancelledWorkloadCostMakesNoCall(t *testing.T) {
	cat := testCatalog()
	w := &workload.Workload{Catalog: cat}
	for v := 0; v < 8; v++ {
		w.Queries = append(w.Queries, mustQueryf(t, cat, "SELECT o_totalprice FROM orders WHERE o_custkey = %d", v))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []int{1, 4} {
		o := NewOptimizer(cat)
		c, err := o.WorkloadCostCtx(ctx, w, nil, p)
		if !faults.IsCancellation(err) || c != 0 {
			t.Fatalf("parallelism %d: (%v, %v), want (0, a cancellation)", p, c, err)
		}
		if o.Calls() != 0 {
			t.Fatalf("parallelism %d: %d what-if calls, want 0", p, o.Calls())
		}
	}
}
