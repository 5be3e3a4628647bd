package advisor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"isum/internal/cost"
	"isum/internal/faults"
	"isum/internal/parallel"
)

// countdownCtx reports cancellation after a fixed number of Err checks —
// deterministic mid-run cancellation without wall-clock timing. Once the
// budget is spent it stays cancelled (monotone, like a real context).
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
	done      chan struct{}
	once      sync.Once
}

func newCountdownCtx(budget int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background(), done: make(chan struct{})}
	c.remaining.Store(budget)
	return c
}

func (c *countdownCtx) expire() { c.once.Do(func() { close(c.done) }) }

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		c.expire()
		return context.Canceled
	}
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} {
	if c.remaining.Load() < 0 {
		c.expire()
	}
	return c.done
}

func serialOptions() Options {
	opts := DefaultOptions()
	opts.Parallelism = 1
	return opts
}

func TestTuneContextAlreadyCancelled(t *testing.T) {
	cat := testCatalog()
	w := testWorkload(t, cat)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	res, err := New(cost.NewOptimizer(cat), serialOptions()).TuneContext(ctx, w)
	if err != nil {
		t.Fatalf("cancellation must not be an error: %v", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("want Partial result, got %+v", res)
	}
	if res.Config == nil {
		t.Fatal("partial result must carry a (possibly empty) configuration")
	}
	// Initial/FinalCost are recomputed on a detached context so even a
	// fully cancelled run reports real workload costs.
	if res.InitialCost <= 0 || res.FinalCost <= 0 {
		t.Fatalf("partial costs not recomputed: initial=%v final=%v", res.InitialCost, res.FinalCost)
	}
}

// TestTuneContextAnytime sweeps cancellation budgets across the tuning run:
// every cut must yield a valid best-so-far result, never an error.
func TestTuneContextAnytime(t *testing.T) {
	cat := testCatalog()
	w := testWorkload(t, cat)

	full, err := New(cost.NewOptimizer(cat), serialOptions()).TuneContext(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial {
		t.Fatal("background tune must not be partial")
	}

	sawMidRun := false
	for budget := int64(0); budget <= 200; budget++ {
		res, err := New(cost.NewOptimizer(cat), serialOptions()).TuneContext(newCountdownCtx(budget), w)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if res == nil || res.Config == nil {
			t.Fatalf("budget %d: missing result or config", budget)
		}
		if res.InitialCost <= 0 {
			t.Fatalf("budget %d: initial cost %v", budget, res.InitialCost)
		}
		if res.FinalCost > res.InitialCost {
			t.Fatalf("budget %d: final cost %v above initial %v — best-so-far config made things worse", budget, res.FinalCost, res.InitialCost)
		}
		if !res.Partial {
			if res.Config.Len() != full.Config.Len() {
				t.Fatalf("budget %d: non-partial run found %d indexes, full run %d", budget, res.Config.Len(), full.Config.Len())
			}
		} else if res.Config.Len() > 0 {
			sawMidRun = true
		}
	}
	if !sawMidRun {
		t.Fatal("no budget produced a partial run with a non-empty configuration")
	}
}

func TestTuneContextEquivalence(t *testing.T) {
	cat := testCatalog()
	w := testWorkload(t, cat)

	compat := New(cost.NewOptimizer(cat), serialOptions()).Tune(w)
	ctxRes, err := New(cost.NewOptimizer(cat), serialOptions()).TuneContext(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if ctxRes.Partial {
		t.Fatal("background run marked partial")
	}
	if got, want := ctxRes.Config.Fingerprint(), compat.Config.Fingerprint(); got != want {
		t.Fatalf("Tune and TuneContext diverge: %q vs %q", got, want)
	}
	if ctxRes.InitialCost != compat.InitialCost || ctxRes.FinalCost != compat.FinalCost {
		t.Fatalf("costs diverge: (%v, %v) vs (%v, %v)",
			ctxRes.InitialCost, ctxRes.FinalCost, compat.InitialCost, compat.FinalCost)
	}
}

// TestEvaluateImprovementContextFailures: an evaluation that cannot cost
// every query returns the pool's error and no figures. A cancelled
// context is a cancellation and makes no what-if call; a contained worker
// panic (a nil query) is a *parallel.PanicError, not a cancellation; on
// the serial path and on the pool alike.
func TestEvaluateImprovementContextFailures(t *testing.T) {
	cat := testCatalog()
	cfg := New(cost.NewOptimizer(cat), serialOptions()).Tune(testWorkload(t, cat)).Config
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	isPanic := func(err error) bool {
		var pe *parallel.PanicError
		return errors.As(err, &pe) && !faults.IsCancellation(err)
	}
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		nilAt   int // index of a nil query, or -1 for none
		wantErr func(error) bool
		noCalls bool
	}{
		{"cancelled", cancelled, -1, faults.IsCancellation, true},
		{"panic", context.Background(), 3, isPanic, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []int{1, 4} {
				t.Run(fmt.Sprintf("parallelism=%d", p), func(t *testing.T) {
					w := testWorkload(t, cat)
					if tc.nilAt >= 0 {
						w.Queries[tc.nilAt] = nil
					}
					o := cost.NewOptimizer(cat)
					pct, base, final, err := EvaluateImprovementContext(tc.ctx, o, w, cfg, p)
					if !tc.wantErr(err) {
						t.Fatalf("EvaluateImprovementContext returned %T: %v", err, err)
					}
					if pct != 0 || base != 0 || final != 0 {
						t.Fatalf("failed evaluation reported (%v, %v, %v), want zeros", pct, base, final)
					}
					if tc.noCalls && o.Calls() != 0 {
						t.Fatalf("%d what-if calls under a cancelled context, want 0", o.Calls())
					}
				})
			}
		})
	}
}

// TestTuneContextContainedPanicIsError: a worker panic (a nil query in the
// workload) comes back from TuneContext as a *parallel.PanicError with no
// result. It is a real failure, so it is not turned into a Partial
// recommendation the way a cancellation is.
func TestTuneContextContainedPanicIsError(t *testing.T) {
	cat := testCatalog()
	w := testWorkload(t, cat)
	w.Queries[2] = nil
	for _, p := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Parallelism = p
		res, err := New(cost.NewOptimizer(cat), opts).TuneContext(context.Background(), w)
		var pe *parallel.PanicError
		if !errors.As(err, &pe) || faults.IsCancellation(err) {
			t.Fatalf("parallelism %d: want *parallel.PanicError, got %T: %v", p, err, err)
		}
		if res != nil {
			t.Fatalf("parallelism %d: a failed tune returned a result: %+v", p, res)
		}
	}
}
