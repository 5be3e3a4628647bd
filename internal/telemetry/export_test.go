package telemetry

import (
	"strings"
	"testing"
	"time"
)

// TestJSONExportGolden pins the machine-readable export schema — version
// field, key order, sorted metric names, span shape — so downstream
// tooling (scripts/metricscheck, dashboards) can rely on it byte for byte.
// Span durations are forced to fixed values; everything else is
// deterministic by construction.
func TestJSONExportGolden(t *testing.T) {
	reg := New()
	reg.Counter("cost/whatif/calls").Add(42)
	reg.Counter("advisor/enumerate/rounds").Add(3)
	reg.Gauge("core/compress/k").Set(10)
	h := reg.Histogram("core/greedy/argmax_nanos", []float64{1000, 1000000})
	h.Observe(500)
	h.Observe(2500)
	h.Observe(5e6)

	root := reg.Start("core/compress")
	root.SetAttr("variant", "ISUM")
	child := reg.Start("core/greedy/round")
	reg.Counter("cost/whatif/calls").Add(8)
	child.End()
	root.End()
	// Wall-clock durations vary run to run; pin them for the golden.
	root.dur = 2 * time.Millisecond
	child.dur = 1 * time.Millisecond

	var sb strings.Builder
	if err := reg.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "version": 1,
  "counters": [
    {
      "name": "advisor/enumerate/rounds",
      "value": 3
    },
    {
      "name": "cost/whatif/calls",
      "value": 50
    }
  ],
  "gauges": [
    {
      "name": "core/compress/k",
      "value": 10
    }
  ],
  "histograms": [
    {
      "name": "core/greedy/argmax_nanos",
      "count": 3,
      "sum": 5003000,
      "buckets": [
        {
          "le": 1000,
          "count": 1
        },
        {
          "le": 1000000,
          "count": 1
        }
      ],
      "overflow": 1
    }
  ],
  "spans": [
    {
      "name": "core/compress",
      "duration_ns": 2000000,
      "attrs": {
        "variant": "ISUM"
      },
      "counter_deltas": {
        "cost/whatif/calls": 8
      },
      "children": [
        {
          "name": "core/greedy/round",
          "duration_ns": 1000000,
          "counter_deltas": {
            "cost/whatif/calls": 8
          }
        }
      ]
    }
  ]
}
`
	if sb.String() != golden {
		t.Errorf("JSON export drifted from golden schema.\ngot:\n%s\nwant:\n%s", sb.String(), golden)
	}
}

// TestJSONExportEmpty pins that a nil registry still writes a valid,
// versioned document with empty arrays (not nulls).
func TestJSONExportEmpty(t *testing.T) {
	var reg *Registry
	var sb strings.Builder
	if err := reg.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "version": 1,
  "counters": [],
  "gauges": [],
  "histograms": [],
  "spans": []
}
`
	if sb.String() != golden {
		t.Errorf("empty export = %s, want %s", sb.String(), golden)
	}
}
