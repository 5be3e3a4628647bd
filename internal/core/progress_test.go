package core

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"isum/internal/telemetry"
)

// eventLog is a concurrency-safe ProgressFunc that records every event —
// the build sweep emits from worker goroutines.
type eventLog struct {
	mu     sync.Mutex
	events []telemetry.ProgressEvent
}

func (l *eventLog) observe(e telemetry.ProgressEvent) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) phases() map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := map[string]int{}
	for _, e := range l.events {
		m[e.Phase]++
	}
	return m
}

// TestProgressDoesNotChangeOutput pins the observer contract from
// Options.Progress: wiring a progress sink must leave the selection
// bitwise identical — indices, weights, and benefits — on the plain and
// template-consed paths, while actually delivering events for the phases
// each path runs.
func TestProgressDoesNotChangeOutput(t *testing.T) {
	w := generatorWorkload(t, "tpcds", 80)
	const k = 16
	cases := []struct {
		name       string
		configure  func(*Options)
		wantPhases []string
	}{
		{
			name:       "plain",
			configure:  func(o *Options) {},
			wantPhases: []string{"core/build-states", "core/greedy", "core/weigh"},
		},
		{
			name:       "consed",
			configure:  func(o *Options) { o.ConsTemplates = true },
			wantPhases: []string{"core/build-consed-states", "core/greedy", "core/weigh"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			tc.configure(&opts)
			base := New(opts).Compress(w, k)

			withProgress := opts
			log := &eventLog{}
			withProgress.Progress = log.observe
			got := New(withProgress).Compress(w, k)

			if len(base.Indices) == 0 {
				t.Fatal("baseline selected nothing")
			}
			if len(got.Indices) != len(base.Indices) {
				t.Fatalf("selection count %d vs %d", len(got.Indices), len(base.Indices))
			}
			for i := range got.Indices {
				if got.Indices[i] != base.Indices[i] ||
					math.Float64bits(got.Weights[i]) != math.Float64bits(base.Weights[i]) ||
					math.Float64bits(got.SelectionBenefits[i]) != math.Float64bits(base.SelectionBenefits[i]) {
					t.Fatalf("progress changed the output at %d: got (%d, %x, %x) want (%d, %x, %x)",
						i, got.Indices[i], math.Float64bits(got.Weights[i]), math.Float64bits(got.SelectionBenefits[i]),
						base.Indices[i], math.Float64bits(base.Weights[i]), math.Float64bits(base.SelectionBenefits[i]))
				}
			}
			if got.Rounds != base.Rounds {
				t.Fatalf("rounds %d vs %d", got.Rounds, base.Rounds)
			}
			phases := log.phases()
			if len(log.events) == 0 {
				t.Fatal("no progress events delivered")
			}
			for _, p := range tc.wantPhases {
				if phases[p] == 0 {
					t.Errorf("no events for phase %q (saw %v)", p, phases)
				}
			}
		})
	}
}

// TestProgressGreedyEventShape: greedy-round events carry a monotonic
// round counter, k-so-far, and a non-decreasing cumulative benefit.
func TestProgressGreedyEventShape(t *testing.T) {
	w := generatorWorkload(t, "tpch", 60)
	opts := DefaultOptions()
	log := &eventLog{}
	opts.Progress = log.observe
	res := New(opts).Compress(w, 12)

	var greedy []telemetry.ProgressEvent
	for _, e := range log.events {
		if e.Phase == "core/greedy" {
			greedy = append(greedy, e)
		}
	}
	if len(greedy) != res.Rounds {
		t.Fatalf("%d greedy events, want one per round (%d)", len(greedy), res.Rounds)
	}
	prevBenefit := 0.0
	for i, e := range greedy {
		if e.Round != i+1 {
			t.Errorf("event %d round = %d, want %d", i, e.Round, i+1)
		}
		if e.Done != i+1 {
			t.Errorf("event %d done (k-so-far) = %d, want %d", i, e.Done, i+1)
		}
		if e.Total != 12 {
			t.Errorf("event %d total = %d, want 12", i, e.Total)
		}
		if e.Benefit < prevBenefit {
			t.Errorf("event %d benefit %v < previous %v (must be cumulative)", i, e.Benefit, prevBenefit)
		}
		prevBenefit = e.Benefit
	}
}

// TestDebugServerUnderCompression is the -race hammer: a live debug
// server is scraped continuously while a parallel, progress-instrumented
// compression runs against the same registry and tracker. Any
// unsynchronised access between the HTTP handlers and the worker pool
// trips the race detector.
func TestDebugServerUnderCompression(t *testing.T) {
	w := generatorWorkload(t, "tpcds", 120)
	reg := telemetry.New()
	tr := telemetry.NewTracker()
	srv, err := telemetry.Serve("127.0.0.1:0", reg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	scrapeErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/metrics", "/progress", "/healthz"} {
				resp, err := http.Get("http://" + srv.Addr() + path)
				if err != nil {
					select {
					case scrapeErr <- err:
					default:
					}
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err == nil && path == "/metrics" && !strings.HasSuffix(string(body), "# EOF\n") {
					err = fmt.Errorf("mid-run /metrics not terminated: %q", string(body))
				}
				if err != nil {
					select {
					case scrapeErr <- err:
					default:
					}
					return
				}
			}
		}
	}()

	opts := DefaultOptions()
	opts.Parallelism = 4
	opts.Telemetry = reg
	opts.Progress = tr.Observe
	res := New(opts).Compress(w, 16)
	close(stop)
	wg.Wait()
	select {
	case err := <-scrapeErr:
		t.Fatalf("scrape failed during compression: %v", err)
	default:
	}
	if len(res.Indices) == 0 {
		t.Fatal("compression under scrape selected nothing")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
