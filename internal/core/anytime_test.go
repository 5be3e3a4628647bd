package core

import (
	"context"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// countdownCtx is a context that reports cancellation after a fixed number
// of Err checks — a deterministic way to stop the pipeline mid-run without
// depending on wall-clock timing. Once the budget is spent it stays
// cancelled forever (cancellation is monotone, like a real context).
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

func TestCompressContextAlreadyCancelled(t *testing.T) {
	w := testWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	res, err := New(DefaultOptions()).CompressContext(ctx, w, 3)
	if err != nil {
		t.Fatalf("cancellation must not be an error: %v", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("want empty Partial result, got %+v", res)
	}
	if len(res.Indices) != 0 {
		t.Fatalf("already-cancelled ctx selected %d queries", len(res.Indices))
	}
}

// TestCompressContextAnytime sweeps cancellation budgets over the whole
// run and pins the anytime contract at every cut point: never an error,
// never a nil result, a Partial flag on truncated runs, and weights that
// stay parallel and normalised for whatever prefix was selected.
func TestCompressContextAnytime(t *testing.T) {
	w := testWorkload(t)
	opts := DefaultOptions()
	opts.Parallelism = 1
	const k = 5

	full := compress(t, New(opts), w, k)
	if full.Partial {
		t.Fatal("background compress must not be partial")
	}

	sawMidRun := false
	for budget := int64(0); budget <= 4096; budget += 16 {
		res, err := New(opts).CompressContext(newCountdownCtx(budget), w, k)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if res == nil {
			t.Fatalf("budget %d: nil result", budget)
		}
		if len(res.Weights) != len(res.Indices) {
			t.Fatalf("budget %d: %d weights for %d indices", budget, len(res.Weights), len(res.Indices))
		}
		if !res.Partial && len(res.Indices) != len(full.Indices) {
			t.Fatalf("budget %d: non-partial result with %d of %d selections", budget, len(res.Indices), len(full.Indices))
		}
		if res.Partial && len(res.Indices) > 0 {
			sawMidRun = true
		}
		// A partial prefix must agree with the full run's selection order,
		// and its weights must renormalise to 1.
		var sum float64
		for i, idx := range res.Indices {
			if i < len(full.Indices) && idx != full.Indices[i] {
				t.Fatalf("budget %d: selection %d is query %d, full run picked %d", budget, i, idx, full.Indices[i])
			}
			sum += res.Weights[i]
		}
		if len(res.Indices) > 0 && math.Abs(sum-1) > 1e-9 {
			t.Fatalf("budget %d: weights sum to %v", budget, sum)
		}
	}
	if !sawMidRun {
		t.Fatal("no budget produced a non-empty partial selection; the sweep is not exercising mid-run cancellation")
	}
}

// TestCompressContextEquivalence: a live context that is never cancelled
// gives the background run's result bit for bit. Observing its Done
// channel between pool indices and at round boundaries must not perturb
// the selection or its weights.
func TestCompressContextEquivalence(t *testing.T) {
	w := testWorkload(t)
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, k := range []int{1, 3, 16, 100} {
		bg := compress(t, New(DefaultOptions()), w, k)
		res, err := New(DefaultOptions()).CompressContext(live, w, k)
		if err != nil {
			t.Fatal(err)
		}
		if bg.Partial || res.Partial {
			t.Fatalf("k=%d: uncancelled run marked partial (background %v, live %v)", k, bg.Partial, res.Partial)
		}
		if !reflect.DeepEqual(bg.Indices, res.Indices) || !reflect.DeepEqual(bg.Weights, res.Weights) {
			t.Fatalf("k=%d: background and live-context runs diverge:\n%v %v\n%v %v",
				k, bg.Indices, bg.Weights, res.Indices, res.Weights)
		}
	}
}
