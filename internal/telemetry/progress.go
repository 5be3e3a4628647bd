package telemetry

import (
	"encoding/json"
	"io"
	"log/slog"
	"sync"
	"time"
)

// ProgressEvent is one streaming update from a running pipeline phase —
// the unit of the progress bus (DESIGN.md §13). Producers (core, advisor)
// emit events; consumers (the Tracker behind /progress, the -progress
// stderr ticker) aggregate them. Events carry counts, never derived
// rates: rate and ETA are computed by the consumer against its own clock,
// so emitting is allocation-free and never reads the wall clock.
type ProgressEvent struct {
	// Phase names the emitting pipeline phase in the span convention:
	// "core/build-states", "core/greedy", "core/weigh",
	// "advisor/candidates", "advisor/enumerate".
	Phase string
	// Round is the greedy/enumeration round count so far (0 when the
	// phase has no round structure).
	Round int
	// Done is the number of phase units completed: queries built,
	// selections made (k-so-far), indexes chosen.
	Done int
	// Total is the expected unit count for the phase (0 = unknown).
	Total int
	// Benefit is the cumulative benefit (compression) or weighted gain
	// (tuning) accumulated so far in the phase.
	Benefit float64
}

// ProgressFunc receives progress events. Implementations must be safe
// for concurrent use: the build-states sweep emits from worker-pool
// goroutines. A nil ProgressFunc disables the bus.
type ProgressFunc func(ProgressEvent)

// Emit calls the function with the event; a nil ProgressFunc is a no-op
// costing one pointer check and zero allocations (pinned by
// TestNilProgressFuncZeroAlloc).
func (f ProgressFunc) Emit(e ProgressEvent) {
	if f != nil {
		f(e)
	}
}

// Tracker folds progress events into the latest-state snapshot served by
// the debug server's /progress endpoint. It is the canonical
// ProgressFunc sink: wire Tracker.Observe (or Ticker) into
// core/advisor Options.Progress. All methods are safe for concurrent
// use and nil-safe.
type Tracker struct {
	mu  sync.Mutex
	now func() time.Time // test seam; defaults to time.Now

	start  time.Time // first event
	last   ProgressEvent
	events int64

	// phaseStart/phaseDone baseline the current phase's rate: units per
	// second is (last.Done − phaseDone) / (now − phaseStart).
	phaseStart time.Time
	phaseDone  int

	lastLog      time.Time
	lastLogPhase string
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{now: time.Now} //lint:allow determinism progress rates are wall-clock by definition; pipeline output never depends on them
}

// Observe records one event. It is a valid ProgressFunc.
func (t *Tracker) Observe(e ProgressEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	if t.events == 0 {
		t.start = now
	}
	if e.Phase != t.last.Phase {
		t.phaseStart = now
		t.phaseDone = e.Done
	}
	t.last = e
	t.events++
}

// progressJSON is the /progress response shape. Field order is fixed by
// this struct, so the document is deterministic for a fixed tracker
// state.
type progressJSON struct {
	Phase          string  `json:"phase"`
	Round          int     `json:"round"`
	Done           int     `json:"done"`
	Total          int     `json:"total"`
	Benefit        float64 `json:"benefit"`
	Events         int64   `json:"events"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	RatePerSecond  float64 `json:"rate_per_second"`
	EtaSeconds     float64 `json:"eta_seconds"`
}

// snapshot derives the JSON view under the lock.
func (t *Tracker) snapshot() progressJSON {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := progressJSON{
		Phase:   t.last.Phase,
		Round:   t.last.Round,
		Done:    t.last.Done,
		Total:   t.last.Total,
		Benefit: t.last.Benefit,
		Events:  t.events,
	}
	if t.events == 0 {
		return p
	}
	now := t.now()
	p.ElapsedSeconds = now.Sub(t.start).Seconds()
	if dt := now.Sub(t.phaseStart).Seconds(); dt > 0 {
		if units := t.last.Done - t.phaseDone; units > 0 {
			p.RatePerSecond = float64(units) / dt
		}
	}
	if p.RatePerSecond > 0 && p.Total > p.Done {
		p.EtaSeconds = float64(p.Total-p.Done) / p.RatePerSecond
	}
	return p
}

// WriteJSON writes the current progress snapshot. A nil tracker writes a
// valid all-zero document.
func (t *Tracker) WriteJSON(w io.Writer) error {
	var p progressJSON
	if t != nil {
		p = t.snapshot()
	}
	enc := json.NewEncoder(w)
	return enc.Encode(p)
}

// Ticker returns a ProgressFunc that records into the tracker and logs a
// rate-limited progress line: at most one per interval, plus one on
// every phase transition so short phases stay visible. This is the
// -progress stderr ticker.
func (t *Tracker) Ticker(log *slog.Logger, interval time.Duration) ProgressFunc {
	return func(e ProgressEvent) {
		t.Observe(e)
		t.mu.Lock()
		now := t.now()
		emit := e.Phase != t.lastLogPhase || now.Sub(t.lastLog) >= interval
		if emit {
			t.lastLog = now
			t.lastLogPhase = e.Phase
		}
		t.mu.Unlock()
		if !emit {
			return
		}
		args := []any{"phase", e.Phase, "done", e.Done}
		if e.Total > 0 {
			args = append(args, "total", e.Total)
		}
		if e.Round > 0 {
			args = append(args, "round", e.Round)
		}
		if e.Benefit > 0 {
			args = append(args, "benefit", e.Benefit)
		}
		log.Info("progress", args...)
	}
}
