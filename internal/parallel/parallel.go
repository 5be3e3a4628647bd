// Package parallel provides the bounded worker-pool primitives behind the
// pipeline's Parallelism knobs. Every helper takes a context and an
// explicit worker count (resolve a user-facing knob with Workers) and
// degrades to a plain serial loop when the count is 1, so `Parallelism: 1`
// is byte-for-byte the pre-parallel code path with zero goroutine overhead.
//
// Determinism contract: the helpers never reduce across workers in
// completion order. Map writes results into an index-addressed slice that
// callers fold in index order, so floating-point reductions (weighted
// sums, argmax with epsilon tie-breaks) are bit-identical at any worker
// count. Callers keep shared state read-only inside fn, or write
// only to their own index i.
//
// Failure model (DESIGN.md §9): the pool never crashes the process. A panic
// in any fn stops the remaining work and is returned as a *PanicError; a
// cancelled context stops the workers at their next index and the context's
// error is returned. In both cases the batch's side effects (slots already
// written by Map, indices already visited by ForEach) are a prefix-free
// partial set that callers must discard or explicitly treat as
// best-so-far. With context.Background() and panic-free fns the helpers
// behave exactly like plain loops.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"isum/internal/telemetry"
)

// PanicError is a worker panic contained by the pool and surfaced as an
// error from ForEach/Map instead of crashing the process.
type PanicError struct {
	// Value is the value the worker panicked with.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panicked: %v", e.Value)
}

// poolMetrics are the package's registered telemetry handles; nil when
// telemetry is disabled (the default), so the hot paths pay one atomic
// pointer load.
type poolMetrics struct {
	tasks     *telemetry.Counter   // parallel/pool/tasks: fn invocations
	batches   *telemetry.Counter   // parallel/pool/batches: ForEach/Map calls
	queueWait *telemetry.Histogram // parallel/pool/queue_wait_nanos: spawn → first task
	cancelled *telemetry.Counter   // parallel/pool/cancelled: batches stopped by ctx
	panics    *telemetry.Counter   // parallel/pool/panics: contained worker panics
}

var pool atomic.Pointer[poolMetrics]

// SetTelemetry registers the worker pool's metrics — tasks executed,
// batches dispatched, a spawn-to-start queue-wait histogram, and
// cancelled/panicked batch counters — in reg. Pass nil to disable (the
// default). The setting is process-wide because the pool helpers are free
// functions; CLIs call it once at startup.
func SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		pool.Store(nil)
		return
	}
	pool.Store(&poolMetrics{
		tasks:     reg.Counter("parallel/pool/tasks"),
		batches:   reg.Counter("parallel/pool/batches"),
		queueWait: reg.Histogram("parallel/pool/queue_wait_nanos", telemetry.DurationBuckets),
		cancelled: reg.Counter("parallel/pool/cancelled"),
		panics:    reg.Counter("parallel/pool/panics"),
	})
}

// Workers resolves a parallelism knob: n < 1 means "use every core"
// (GOMAXPROCS), any other value is taken literally.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach invokes fn(i) for every i in [0, n), using at most workers
// goroutines. Indices are handed out in contiguous chunks. fn must not
// touch shared mutable state except at its own index.
//
// When ctx is cancelled the workers stop before their next index and
// ctx.Err() is returned; indices already started run to completion. A
// panic in any fn likewise stops the batch and is returned as a
// *PanicError. The nil error therefore guarantees every index was visited
// exactly once.
func ForEach(ctx context.Context, workers, n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	m := pool.Load()
	if m != nil {
		m.tasks.Add(int64(n))
		m.batches.Inc()
	}
	done := ctx.Done()
	if done != nil {
		if err := ctx.Err(); err != nil {
			if m != nil {
				m.cancelled.Inc()
			}
			return err
		}
	}
	if workers > n {
		workers = n
	}

	var (
		stop     atomic.Bool // set on cancellation or panic: drain remaining work
		panicMu  sync.Mutex
		panicked *PanicError
	)
	run := func(lo, hi int) {
		defer func() {
			if r := recover(); r != nil {
				stop.Store(true)
				panicMu.Lock()
				if panicked == nil {
					panicked = &PanicError{Value: r, Stack: debug.Stack()}
				}
				panicMu.Unlock()
			}
		}()
		for i := lo; i < hi; i++ {
			if stop.Load() {
				return
			}
			if done != nil {
				select {
				case <-done:
					stop.Store(true)
					return
				default:
				}
			}
			fn(i)
		}
	}

	if workers <= 1 {
		run(0, n)
	} else {
		var wg sync.WaitGroup
		var spawned time.Time
		if m != nil {
			spawned = time.Now() //lint:allow determinism queue-wait histogram only; task results never read the clock
		}
		for w := 0; w < workers; w++ {
			lo := w * n / workers
			hi := (w + 1) * n / workers
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				if m != nil {
					m.queueWait.Observe(float64(time.Since(spawned).Nanoseconds()))
				}
				run(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}

	if panicked != nil {
		if m != nil {
			m.panics.Inc()
		}
		return panicked
	}
	if done != nil {
		if err := ctx.Err(); err != nil {
			if m != nil {
				m.cancelled.Inc()
			}
			return err
		}
	}
	return nil
}

// Map returns [fn(0), fn(1), …, fn(n-1)], computing the entries with at
// most workers goroutines. The result order is always index order,
// regardless of completion order.
//
// On a non-nil error (cancellation or contained panic) the returned slice
// is partially filled: entries whose fn ran hold its result, the rest hold
// zero values. Callers either discard it or treat the filled entries as a
// best-so-far snapshot (they must then distinguish zero values themselves,
// e.g. by mapping to pointers).
func Map[T any](ctx context.Context, workers, n int, fn func(i int) T) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(i int) {
		out[i] = fn(i)
	})
	return out, err
}
