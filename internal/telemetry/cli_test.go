package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestNoFlagsNoGoroutines pins the zero-overhead contract: with no
// telemetry flag set, Open allocates no registry and starts no
// goroutines.
func TestNoFlagsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var f Flags
	run, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	if run.Registry != nil {
		t.Errorf("no-flags Open allocated Registry=%v", run.Registry)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("no-flags Open grew goroutines %d -> %d", before, got)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines after Close %d -> %d", before, got)
	}
}

// TestRunCloseWritesExports: -metrics-out lands on disk as a valid
// document after Close.
func TestRunCloseWritesExports(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	f := Flags{MetricsOut: metrics}
	run, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	run.Registry.Counter("cost/whatif/calls").Add(2)
	sp := run.Registry.Start("core/compress")
	time.Sleep(time.Millisecond)
	sp.End()
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	var ex struct {
		Version  int `json:"version"`
		Counters []struct {
			Name string `json:"name"`
		} `json:"counters"`
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Version != 1 || len(ex.Counters) != 1 || ex.Counters[0].Name != "cost/whatif/calls" {
		t.Errorf("metrics export = %+v", ex)
	}
	if len(ex.Spans) != 1 || ex.Spans[0].Name != "core/compress" {
		t.Errorf("metrics export spans = %+v", ex.Spans)
	}
}
