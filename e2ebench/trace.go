package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"isum/internal/cost"
)

// span is one timed call into a layer. Spans of one execution share Exec;
// Parent is the enclosing span's ID, or -1 for a root.
type span struct {
	Exec   int                `json:"exec"`
	Log    int                `json:"log"`
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Values map[string]float64 `json:"values,omitempty"`
}

// costCounters is a reading of a what-if optimizer's counters.
type costCounters struct {
	calls, plans, hits, elided, prunes, waits int64
	busy                                      time.Duration
}

func readCost(o *cost.Optimizer) costCounters {
	hits, _ := o.CacheStats()
	elided, prunes, waits := o.ElideStats()
	return costCounters{
		calls: o.Calls(), plans: o.Plans(), hits: hits,
		elided: elided, prunes: prunes, waits: waits, busy: o.CostTime(),
	}
}

// open is the state a span captured when it began: counter readings whose
// deltas the span records when it ends.
type open struct {
	idx   int
	alloc uint64
	gcs   uint32
	o     *cost.Optimizer
	cost  costCounters
}

// tracer records spans in memory; they are written out once the run ends.
// A nil *tracer records nothing, so untraced executions take the same code
// path with every method a pointer check.
type tracer struct {
	origin time.Time
	exec   int
	log    int
	spans  []span
	stack  []open
}

func newTracer() *tracer {
	return &tracer{origin: time.Now()} //lint:allow determinism span timestamps are wall-clock by definition
}

// startExec begins a new execution on the given log: the spans begun until
// the next startExec share its execution ID.
func (t *tracer) startExec(log int) {
	if t == nil {
		return
	}
	t.exec++
	t.log = log
}

// begin opens a span nested in the innermost open one. When o is non-nil
// the span also records the optimizer's counter deltas.
func (t *tracer) begin(name string, o *cost.Optimizer) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1].idx].ID
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	op := open{idx: len(t.spans), alloc: ms.TotalAlloc, gcs: ms.NumGC, o: o}
	if o != nil {
		op.cost = readCost(o)
	}
	t.spans = append(t.spans, span{
		Exec: t.exec, Log: t.log, ID: len(t.spans), Parent: parent, Name: name,
		Values: map[string]float64{},
	})
	t.stack = append(t.stack, op)
	// Read the clock last, so the span's interval excludes its own set-up.
	t.spans[op.idx].Start = time.Since(t.origin)
}

// end closes the innermost open span and records its counter deltas plus
// the given attributes.
func (t *tracer) end(attrs map[string]float64) {
	if t == nil {
		return
	}
	endAt := time.Since(t.origin)
	op := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &t.spans[op.idx]
	s.End = endAt
	s.Values["alloc_mb"] = float64(ms.TotalAlloc-op.alloc) / 1e6
	s.Values["gc_cycles"] = float64(ms.NumGC - op.gcs)
	if op.o != nil {
		c := readCost(op.o)
		s.Values["calls"] = float64(c.calls - op.cost.calls)
		s.Values["plans"] = float64(c.plans - op.cost.plans)
		s.Values["cache_hits"] = float64(c.hits - op.cost.hits)
		s.Values["elided"] = float64(c.elided - op.cost.elided)
		s.Values["bound_prunes"] = float64(c.prunes - op.cost.prunes)
		s.Values["singleflight_waits"] = float64(c.waits - op.cost.waits)
		s.Values["busy_s"] = (c.busy - op.cost.busy).Seconds()
	}
	for k, v := range attrs {
		s.Values[k] = v
	}
}

// selfTimes returns each span's duration minus the part its children
// cover. Children of one span run one after another, never overlapping.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
