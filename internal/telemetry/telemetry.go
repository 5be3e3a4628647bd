// Package telemetry is the pipeline's observability substrate: a
// stdlib-only metrics registry (counters, gauges, fixed-bucket histograms)
// plus a lightweight span/phase tracer, with a versioned JSON export and a
// trace-tree rendering, and runtime/pprof profiling helpers for the CLIs.
//
// Metric and span names follow a subsystem/phase/name convention
// (DESIGN.md §8): "cost/whatif/calls", "core/greedy/argmax_nanos",
// "advisor/enumerate/rounds". Keeping the first segment equal to the
// emitting package makes exports self-locating.
//
// Nil-safety: every method is a no-op on a nil *Registry, a nil *Span, and
// the nil metric handles a nil registry returns. Library code threads an
// optional registry through its hot paths unconditionally; when telemetry
// is disabled the whole instrumentation path is a pointer check with zero
// allocation (pinned by TestDisabledTelemetryAllocatesNothing).
//
// Concurrency: metric handles are atomics and safe for concurrent use from
// worker-pool goroutines (see the parallel package's hammer test). Spans
// are structural — Start/End delimit pipeline phases and must be called
// from one goroutine at a time (the orchestration path), never from inside
// worker closures; workers bump metrics, phases own spans.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// DurationBuckets are the default histogram boundaries for duration
// observations in nanoseconds: 1µs … 10s, one decade per bucket.
var DurationBuckets = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// Counter is a monotonically increasing (between Resets) int64 metric.
// The zero value is ready to use; all methods are nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset zeroes the counter in place, so handles held by callers stay valid.
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.v.Store(0)
}

// Gauge is a last-write-wins float64 metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed upper-bound buckets. Bounds are
// immutable after registration; observations above the last bound land in
// an overflow bucket. Count and per-bucket counts are exact under
// concurrency; Sum is maintained with a CAS loop.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	total  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bounds returns the bucket upper bounds (shared slice; do not mutate).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCounts returns the per-bucket counts; the last entry is the
// overflow bucket (observations above the final bound).
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Registry holds named metrics and the span forest of one pipeline run.
// Metric registration is idempotent: the first caller of a name creates
// the metric, later callers get the same handle. All methods are nil-safe.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	spanMu sync.Mutex
	roots  []*Span
	active *Span
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns (registering on first use) the named counter, or nil on
// a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge, or nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram, or nil
// on a nil registry. The first registration fixes the bucket bounds; later
// calls return the existing histogram regardless of the bounds argument.
// Bounds must be sorted ascending; nil bounds default to DurationBuckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = DurationBuckets
		}
		h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// counterValues snapshots every counter (for span deltas).
func (r *Registry) counterValues() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// HistogramValues is one histogram's state inside a Snapshot.
type HistogramValues struct {
	Count   int64
	Sum     float64
	Bounds  []float64
	Buckets []int64 // per-bucket counts; last is overflow
}

// Snapshot is a point-in-time copy of every metric, the source of the
// JSON export.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramValues
}

// Snapshot copies the current metric values (nil on a nil registry).
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramValues, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = HistogramValues{
			Count: h.Count(), Sum: h.Sum(), Bounds: h.bounds, Buckets: h.BucketCounts(),
		}
	}
	return s
}
