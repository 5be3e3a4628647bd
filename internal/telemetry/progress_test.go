package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fakeClock is a hand-advanced time source for the Tracker's now seam.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestTracker() (*Tracker, *fakeClock) {
	c := &fakeClock{t: time.Unix(1700000000, 0)}
	tr := NewTracker()
	tr.now = c.now
	return tr, c
}

func TestTrackerSnapshotRateAndETA(t *testing.T) {
	tr, clk := newTestTracker()
	tr.Observe(ProgressEvent{Phase: "core/build-states", Done: 0, Total: 1000})
	clk.advance(2 * time.Second)
	tr.Observe(ProgressEvent{Phase: "core/build-states", Done: 200, Total: 1000})

	p := tr.snapshot()
	if p.Phase != "core/build-states" || p.Done != 200 || p.Total != 1000 || p.Events != 2 {
		t.Fatalf("snapshot = %+v", p)
	}
	if p.ElapsedSeconds != 2 {
		t.Errorf("elapsed = %v, want 2", p.ElapsedSeconds)
	}
	// 200 units in 2s → 100/s; 800 remaining → ETA 8s.
	if p.RatePerSecond != 100 {
		t.Errorf("rate = %v, want 100", p.RatePerSecond)
	}
	if p.EtaSeconds != 8 {
		t.Errorf("eta = %v, want 8", p.EtaSeconds)
	}
}

// TestTrackerPhaseChangeResetsRate: the rate baseline restarts per phase,
// so a fast phase does not inflate the next phase's ETA.
func TestTrackerPhaseChangeResetsRate(t *testing.T) {
	tr, clk := newTestTracker()
	tr.Observe(ProgressEvent{Phase: "core/build-states", Done: 5000, Total: 5000})
	clk.advance(1 * time.Second)
	tr.Observe(ProgressEvent{Phase: "core/greedy", Done: 0, Total: 100})
	clk.advance(4 * time.Second)
	tr.Observe(ProgressEvent{Phase: "core/greedy", Done: 8, Total: 100})

	p := tr.snapshot()
	// 8 selections in 4s → 2/s, measured from the greedy phase start only.
	if p.RatePerSecond != 2 {
		t.Errorf("rate = %v, want 2", p.RatePerSecond)
	}
	if p.EtaSeconds != 46 {
		t.Errorf("eta = %v, want 46", p.EtaSeconds)
	}
}

func TestTrackerWriteJSON(t *testing.T) {
	tr, _ := newTestTracker()
	tr.Observe(ProgressEvent{Phase: "core/greedy", Round: 3, Done: 3, Total: 10, Benefit: 1.5})
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	keys := []string{"phase", "round", "done", "total", "benefit", "events",
		"elapsed_seconds", "rate_per_second", "eta_seconds"}
	for _, key := range keys {
		if _, ok := doc[key]; !ok {
			t.Errorf("/progress document missing %q: %s", key, sb.String())
		}
	}
	if len(doc) != len(keys) {
		t.Errorf("/progress document has %d keys, want exactly %v: %s", len(doc), keys, sb.String())
	}
	if doc["phase"] != "core/greedy" || doc["benefit"] != 1.5 {
		t.Errorf("document = %s", sb.String())
	}
}

// TestNilTrackerAndWriteJSON: every entry point tolerates nil — the
// no-flags CLI path passes nil Trackers around freely.
func TestNilTrackerAndWriteJSON(t *testing.T) {
	var tr *Tracker
	tr.Observe(ProgressEvent{Phase: "x"}) // must not panic
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc progressJSON
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc != (progressJSON{}) {
		t.Errorf("nil tracker document = %+v, want zero", doc)
	}
}

// TestNilProgressFuncZeroAlloc pins the disabled-bus contract referenced
// in progress.go: emitting through a nil ProgressFunc allocates nothing,
// so instrumented hot loops cost one nil check when telemetry is off.
func TestNilProgressFuncZeroAlloc(t *testing.T) {
	var f ProgressFunc
	e := ProgressEvent{Phase: "core/greedy", Round: 1, Done: 1, Total: 10}
	allocs := testing.AllocsPerRun(1000, func() {
		f.Emit(e)
	})
	if allocs != 0 {
		t.Errorf("nil ProgressFunc.Emit allocates %v per call, want 0", allocs)
	}
}

// TestTickerRateLimit: the stderr ticker logs at most once per interval
// but always on a phase transition.
func TestTickerRateLimit(t *testing.T) {
	tr, clk := newTestTracker()
	var sb strings.Builder
	log := NewDeterministicLogger(&sb)
	tick := tr.Ticker(log, time.Second)

	tick(ProgressEvent{Phase: "core/build-states", Done: 100, Total: 1000}) // first: phase change
	clk.advance(100 * time.Millisecond)
	tick(ProgressEvent{Phase: "core/build-states", Done: 200, Total: 1000}) // suppressed
	clk.advance(time.Second)
	tick(ProgressEvent{Phase: "core/build-states", Done: 900, Total: 1000})               // interval elapsed
	tick(ProgressEvent{Phase: "core/greedy", Round: 1, Done: 1, Total: 10, Benefit: 0.5}) // phase change

	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("ticker logged %d lines, want 3:\n%s", len(lines), sb.String())
	}
	if want := "level=INFO msg=progress phase=core/build-states done=100 total=1000"; lines[0] != want {
		t.Errorf("line 0 = %q, want %q", lines[0], want)
	}
	if !strings.Contains(lines[1], "done=900") {
		t.Errorf("line 1 = %q, want the post-interval event", lines[1])
	}
	if want := "level=INFO msg=progress phase=core/greedy done=1 total=10 round=1 benefit=0.5"; lines[2] != want {
		t.Errorf("line 2 = %q, want %q", lines[2], want)
	}
	if tr.snapshot().Events != 4 {
		t.Errorf("tracker saw %d events, want all 4 (suppression is log-only)", tr.snapshot().Events)
	}
}
