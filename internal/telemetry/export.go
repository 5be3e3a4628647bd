package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// ExportVersion is the schema version stamped into JSON exports. Bump it
// on any breaking change to the export shape; downstream tooling
// (scripts/metricscheck, dashboards) keys on it.
const ExportVersion = 1

// The JSON export schema. Field order is fixed by these struct
// definitions and slices are sorted by name, so the export is
// byte-deterministic for deterministic metric values — pinned by the
// golden test in export_test.go.
type jsonExport struct {
	Version    int             `json:"version"`
	Counters   []jsonCounter   `json:"counters"`
	Gauges     []jsonGauge     `json:"gauges"`
	Histograms []jsonHistogram `json:"histograms"`
	Spans      []*jsonSpan     `json:"spans"`
}

type jsonCounter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

type jsonGauge struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

type jsonHistogram struct {
	Name     string       `json:"name"`
	Count    int64        `json:"count"`
	Sum      float64      `json:"sum"`
	Buckets  []jsonBucket `json:"buckets"`
	Overflow int64        `json:"overflow"`
}

type jsonBucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

type jsonSpan struct {
	Name          string            `json:"name"`
	DurationNs    int64             `json:"duration_ns"`
	Attrs         map[string]string `json:"attrs,omitempty"`
	CounterDeltas map[string]int64  `json:"counter_deltas,omitempty"`
	Children      []*jsonSpan       `json:"children,omitempty"`
}

func (r *Registry) export() *jsonExport {
	e := &jsonExport{
		Version:    ExportVersion,
		Counters:   []jsonCounter{},
		Gauges:     []jsonGauge{},
		Histograms: []jsonHistogram{},
		Spans:      []*jsonSpan{},
	}
	if r == nil {
		return e
	}
	s := r.Snapshot()
	for _, name := range sortedKeys(s.Counters) {
		e.Counters = append(e.Counters, jsonCounter{Name: name, Value: s.Counters[name]})
	}
	for _, name := range sortedKeys(s.Gauges) {
		e.Gauges = append(e.Gauges, jsonGauge{Name: name, Value: s.Gauges[name]})
	}
	for _, name := range sortedKeys(s.Histograms) {
		hv := s.Histograms[name]
		jh := jsonHistogram{Name: name, Count: hv.Count, Sum: hv.Sum, Buckets: []jsonBucket{}}
		for i, b := range hv.Bounds {
			jh.Buckets = append(jh.Buckets, jsonBucket{LE: b, Count: hv.Buckets[i]})
		}
		jh.Overflow = hv.Buckets[len(hv.Buckets)-1]
		e.Histograms = append(e.Histograms, jh)
	}
	for _, sp := range r.Spans() {
		e.Spans = append(e.Spans, exportSpan(sp))
	}
	return e
}

func exportSpan(sp *Span) *jsonSpan {
	js := &jsonSpan{Name: sp.name, DurationNs: sp.dur.Nanoseconds()}
	if len(sp.attrs) > 0 {
		js.Attrs = make(map[string]string, len(sp.attrs))
		for _, a := range sp.attrs {
			js.Attrs[a.Key] = a.Value
		}
	}
	js.CounterDeltas = sp.deltas
	for _, c := range sp.children {
		js.Children = append(js.Children, exportSpan(c))
	}
	return js
}

// WriteJSON writes the versioned machine-readable export: all metrics
// (sorted by name) and the span forest (in start order). A nil registry
// writes a valid empty export.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.export())
}

// WriteTrace writes the span forest as an indented phase tree with
// durations, attributes, and per-span counter deltas — the -trace output.
func (r *Registry) WriteTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, sp := range r.Spans() {
		if err := writeTraceSpan(w, sp, 0); err != nil {
			return err
		}
	}
	return nil
}

func writeTraceSpan(w io.Writer, sp *Span, depth int) error {
	var b strings.Builder
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(sp.name)
	fmt.Fprintf(&b, "  %v", sp.dur.Round(time.Microsecond))
	for _, a := range sp.attrs {
		fmt.Fprintf(&b, "  %s=%s", a.Key, a.Value)
	}
	if len(sp.deltas) > 0 {
		b.WriteString("  [")
		for i, name := range sortedKeys(sp.deltas) {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s %+d", name, sp.deltas[name])
		}
		b.WriteString("]")
	}
	if _, err := fmt.Fprintln(w, b.String()); err != nil {
		return err
	}
	for _, c := range sp.children {
		if err := writeTraceSpan(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
