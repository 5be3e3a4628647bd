package parallel

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS (%d)", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	for _, n := range []int{1, 2, 7, 64} {
		if got := Workers(n); got != n {
			t.Fatalf("Workers(%d) = %d", n, got)
		}
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 5, 97, 1000} {
			hits := make([]int32, n)
			if err := ForEach(ctx, workers, n, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			}); err != nil {
				t.Fatalf("workers=%d n=%d: unexpected error: %v", workers, n, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestMapPreservesIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		out, err := Map(context.Background(), workers, 500, func(i int) int { return i * i })
		if err != nil {
			t.Fatalf("workers=%d: unexpected error: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestForEachPanicContained pins the failure model: a worker panic is
// returned as a *PanicError — with the payload and a stack — instead of
// crashing the process, at every worker count including the serial path.
func TestForEachPanicContained(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), workers, 100, func(i int) {
			if i == 37 {
				panic("boom")
			}
		})
		if err == nil {
			t.Fatalf("workers=%d: panic was not surfaced as an error", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error is %T, want *PanicError", workers, err)
		}
		if pe.Value != "boom" {
			t.Fatalf("workers=%d: unexpected panic payload: %v", workers, pe.Value)
		}
		if !strings.Contains(err.Error(), "boom") {
			t.Fatalf("workers=%d: Error() should carry the payload: %q", workers, err.Error())
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: missing stack trace", workers)
		}
	}
}

// TestForEachPanicStopsRemainingWork: after a panic the other workers stop
// at their next index instead of running the batch to completion.
func TestForEachPanicStopsRemainingWork(t *testing.T) {
	var ran atomic.Int64
	n := 100000
	err := ForEach(context.Background(), 4, n, func(i int) {
		ran.Add(1)
		if i == 0 {
			panic("early")
		}
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := ran.Load(); got == int64(n) {
		t.Fatalf("all %d tasks ran despite an early panic", n)
	}
}

func TestForEachAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	for _, workers := range []int{1, 4} {
		err := ForEach(ctx, workers, 50, func(i int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran under an already-cancelled context", ran.Load())
	}
}

// TestForEachCancelMidRun: cancelling while the batch runs stops the
// workers before the batch completes and returns ctx.Err().
func TestForEachCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	n := 1 << 20
	err := ForEach(ctx, 4, n, func(i int) {
		if ran.Add(1) == 100 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got == int64(n) {
		t.Fatal("cancellation did not stop the batch early")
	}
}

// TestMapPartialOnCancel: Map under cancellation returns the partially
// filled slice alongside the error; entries that ran hold real results.
func TestMapPartialOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	out, err := Map(ctx, 2, 1<<16, func(i int) int {
		if ran.Add(1) == 10 {
			cancel()
		}
		return i + 1
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != 1<<16 {
		t.Fatalf("partial slice has wrong length %d", len(out))
	}
	filled := 0
	for i, v := range out {
		if v != 0 {
			if v != i+1 {
				t.Fatalf("out[%d] = %d, want %d", i, v, i+1)
			}
			filled++
		}
	}
	if filled == 0 {
		t.Fatal("no entries filled before cancellation")
	}
}
