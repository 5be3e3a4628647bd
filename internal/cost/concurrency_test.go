package cost

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"isum/internal/catalog"
	"isum/internal/index"
	"isum/internal/telemetry"
	"isum/internal/workload"
)

func mustQueryf(t *testing.T, cat *catalog.Catalog, pat string, args ...any) *workload.Query {
	t.Helper()
	return mustQuery(t, cat, fmt.Sprintf(pat, args...))
}

// TestOptimizerConcurrentCost hammers the what-if cache from many
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
// cross product than shard count, reads the atomic counters *while* the
// cache is being hammered (the old mutex design deadlocked value here), and
// then checks the cache absorbed every repeat: a second identical hammer
// round must add zero plan computations.
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

	hammer := func(rounds int) {
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					q := queries[(g*7+i)%len(queries)]
					o.Cost(q, cfgs[(g+i)%len(cfgs)])
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
	}

	hammer(200)
	if o.Calls() != 16*200 {
		t.Fatalf("calls = %d, want %d", o.Calls(), 16*200)
	}
	// Everything is cached now: replaying the same access pattern must be
	// pure cache hits.
	plansAfterWarm := o.Plans()
	if plansAfterWarm == 0 {
		t.Fatal("expected some plan computations during warm-up")
	}
	hitsAfterWarm, missesAfterWarm := o.CacheStats()
	hammer(200)
	if o.Plans() != plansAfterWarm {
		t.Fatalf("plans grew from %d to %d on a fully-cached replay", plansAfterWarm, o.Plans())
	}
	hits, misses := o.CacheStats()
	if hits-hitsAfterWarm != 16*200 || misses != missesAfterWarm {
		t.Fatalf("fully-cached replay added %d hits and %d misses, want %d and 0",
			hits-hitsAfterWarm, misses-missesAfterWarm, 16*200)
	}

	o.ResetCounters()
	if o.Calls() != 0 || o.Plans() != 0 || o.CostTime() != 0 {
		t.Fatal("ResetCounters left residue")
	}
}

// TestWorkloadCostParallelDeterminism checks the ordered-reduction
// guarantee: WorkloadCostN returns bit-identical sums at any parallelism,
// and FillCostsN matches serial filling.
func TestWorkloadCostParallelDeterminism(t *testing.T) {
	cat := testCatalog()
	o := NewOptimizer(cat)
	w := &workload.Workload{Catalog: cat}
	for v := 0; v < 40; v++ {
		q := mustQueryf(t, cat, "SELECT o_totalprice FROM orders WHERE o_custkey = %d", v)
		q.Weight = 1 + float64(v%5)
		w.Queries = append(w.Queries, q)
	}
	cfg := index.NewConfiguration(index.New("orders", "o_custkey"))

	want := o.WorkloadCostN(w, cfg, 1)
	if want <= 0 {
		t.Fatal("non-positive workload cost")
	}
	for _, p := range []int{0, 2, 8} {
		if got := o.WorkloadCostN(w, cfg, p); got != want {
			t.Fatalf("parallelism %d: workload cost %v != serial %v", p, got, want)
		}
	}

	o.FillCostsN(w, 1)
	serial := make([]float64, len(w.Queries))
	for i, q := range w.Queries {
		serial[i] = q.Cost
	}
	o.FillCostsN(w, 8)
	for i, q := range w.Queries {
		if q.Cost != serial[i] {
			t.Fatalf("query %d: parallel fill %v != serial %v", i, q.Cost, serial[i])
		}
	}
}

// TestCacheCountersPartitionCalls: the registry holds one cache hit and
// one cache miss counter, CacheStats reads them, and on a fault-free run
// each what-if call is exactly one hit, miss or singleflight wait, also
// when 8 workers race on the same cold probes.
func TestCacheCountersPartitionCalls(t *testing.T) {
	cat := testCatalog()
	reg := telemetry.New()
	o := NewOptimizerWithTelemetry(cat, DefaultParams(), reg)
	w := &workload.Workload{Catalog: cat}
	for v := 0; v < 40; v++ {
		w.Queries = append(w.Queries, mustQueryf(t, cat, "SELECT o_totalprice FROM orders WHERE o_custkey = %d", v%10))
	}
	cfg := index.NewConfiguration(index.New("orders", "o_custkey"))
	for _, p := range []int{8, 1} {
		o.WorkloadCostN(w, nil, p)
		o.WorkloadCostN(w, cfg, p)
	}

	counters := reg.Snapshot().Counters
	for name := range counters {
		if strings.HasPrefix(name, "cost/cache/") && name != "cost/cache/hits" && name != "cost/cache/misses" {
			t.Errorf("registry has cache counter %q beyond hits and misses", name)
		}
	}
	hits, misses := o.CacheStats()
	if hits != counters["cost/cache/hits"] || misses != counters["cost/cache/misses"] {
		t.Errorf("CacheStats() = (%d, %d), registry holds (%d, %d)",
			hits, misses, counters["cost/cache/hits"], counters["cost/cache/misses"])
	}
	// 10 distinct texts under 2 configurations are 20 distinct probes.
	calls, waits := counters["cost/whatif/calls"], counters["cost/elide/singleflight_waits"]
	if calls != 4*40 || misses != 20 || hits+misses+waits != calls {
		t.Errorf("calls %d, hits %d, misses %d, waits %d: want 160 calls, 20 misses, hits + misses + waits = calls",
			calls, hits, misses, waits)
	}
}
