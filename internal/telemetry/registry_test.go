package telemetry_test

import (
	"context"
	"strings"
	"testing"

	"isum/internal/parallel"
	"isum/internal/telemetry"
)

// TestRegistryUnderForEach hammers one registry from the worker pool the
// pipeline actually uses and asserts exact totals: counters and histogram
// counts are atomics, so no update may be lost at any worker count.
func TestRegistryUnderForEach(t *testing.T) {
	const (
		workers = 8
		n       = 20000
	)
	reg := telemetry.New()
	ctr := reg.Counter("test/hammer/adds")
	hist := reg.Histogram("test/hammer/values", []float64{10, 100, 1000})
	if err := parallel.ForEach(context.Background(), workers, n, func(i int) {
		ctr.Inc()
		reg.Counter("test/hammer/lookups").Add(2) // exercise concurrent registration
		hist.Observe(float64(i % 2000))
	}); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if got := ctr.Value(); got != n {
		t.Errorf("counter = %d, want %d", got, n)
	}
	if got := reg.Counter("test/hammer/lookups").Value(); got != 2*n {
		t.Errorf("lookup counter = %d, want %d", got, 2*n)
	}
	if got := hist.Count(); got != n {
		t.Errorf("histogram count = %d, want %d", got, n)
	}
	// i%2000 over 20000 iterations: 10 full cycles. Bucket le=10 holds
	// values 0..10 (11 per cycle), le=100 holds 11..100 (90), le=1000 holds
	// 101..1000 (900), overflow holds 1001..1999 (999).
	buckets := hist.BucketCounts()
	want := []int64{110, 900, 9000, 9990}
	for i, w := range want {
		if buckets[i] != w {
			t.Errorf("bucket[%d] = %d, want %d", i, buckets[i], w)
		}
	}
	var total int64
	for _, b := range buckets {
		total += b
	}
	if total != n {
		t.Errorf("bucket totals = %d, want %d", total, n)
	}
}

func TestSnapshotAndCounterReset(t *testing.T) {
	reg := telemetry.New()
	c := reg.Counter("a/b/c")
	g := reg.Gauge("a/b/g")
	h := reg.Histogram("a/b/h", []float64{1, 10})
	c.Add(5)
	g.Set(2.5)
	h.Observe(0.5)
	h.Observe(100)

	snap := reg.Snapshot()
	if snap.Counters["a/b/c"] != 5 {
		t.Errorf("counter = %d, want 5", snap.Counters["a/b/c"])
	}
	hv := snap.Histograms["a/b/h"]
	if hv.Count != 2 || hv.Buckets[0] != 1 || hv.Buckets[2] != 1 {
		t.Errorf("histogram = %+v, want one in le=1 and one in overflow", hv)
	}
	if snap.Gauges["a/b/g"] != 2.5 {
		t.Errorf("gauge = %g, want 2.5", snap.Gauges["a/b/g"])
	}

	// Counter.Reset (the optimizer's ResetCounters hook) zeroes in place,
	// so a handle registered before it stays live.
	c.Reset()
	if c.Value() != 0 {
		t.Error("Reset left counter residue")
	}
	c.Inc()
	if reg.Counter("a/b/c").Value() != 1 {
		t.Error("counter handle detached from registry after Reset")
	}
}

func TestSpanNestingAndDeltas(t *testing.T) {
	reg := telemetry.New()
	calls := reg.Counter("x/y/calls")

	root := reg.Start("root")
	calls.Add(1)
	child := reg.Start("child")
	child.SetAttr("round", 3)
	calls.Add(2)
	child.End()
	calls.Add(4)
	root.End()

	roots := reg.Spans()
	if len(roots) != 1 || roots[0].Name() != "root" {
		t.Fatalf("roots = %v", roots)
	}
	kids := roots[0].Children()
	if len(kids) != 1 || kids[0].Name() != "child" {
		t.Fatalf("children = %v", kids)
	}
	if d := kids[0].CounterDeltas()["x/y/calls"]; d != 2 {
		t.Errorf("child delta = %d, want 2", d)
	}
	if d := roots[0].CounterDeltas()["x/y/calls"]; d != 7 {
		t.Errorf("root delta = %d, want 7", d)
	}
	// After the stack unwound, new spans are roots again.
	second := reg.Start("second")
	second.End()
	if got := len(reg.Spans()); got != 2 {
		t.Errorf("root spans = %d, want 2", got)
	}

	var sb strings.Builder
	if err := reg.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"root", "  child", "round=3", "x/y/calls +2"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

// TestDisabledTelemetryAllocatesNothing pins the no-op contract: with a
// nil registry the entire instrumentation surface performs zero
// allocations, so the library path costs nothing when telemetry is off.
func TestDisabledTelemetryAllocatesNothing(t *testing.T) {
	var reg *telemetry.Registry
	allocs := testing.AllocsPerRun(1000, func() {
		sp := reg.Start("core/compress")
		sp.SetAttr("k", 10)
		reg.Counter("cost/whatif/calls").Add(1)
		reg.Gauge("g").Set(1)
		reg.Histogram("h", nil).Observe(1)
		reg.Snapshot()
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("nil-registry path allocates %.1f per run, want 0", allocs)
	}
}
