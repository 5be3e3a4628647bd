package advisor

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"isum/internal/benchmarks"
	"isum/internal/catalog"
	"isum/internal/cost"
	"isum/internal/faults"
	"isum/internal/workload"
)

// elideOracleWorkload builds a benchmark workload for the elision oracle.
func elideOracleWorkload(t *testing.T, genName string, n int) (*workload.Workload, *catalog.Catalog) {
	t.Helper()
	gen, err := benchmarks.FromName(genName, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gen.Workload(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w, gen.Cat
}

// tuneOutput captures everything elision must leave untouched: the
// recommendation, the bitwise costs, the exploration count, and the
// rendered report.
type tuneOutput struct {
	fingerprint    string
	initial, final uint64
	explored       int64
	rounds         int
	optimizerCalls int64
	report         []byte
	elideHits      int64
	elidePrunes    int64
}

// runTune tunes w with the production advisor on a fresh optimizer.
func runTune(t *testing.T, w *workload.Workload, cat *catalog.Catalog, opts Options) tuneOutput {
	t.Helper()
	o := cost.NewOptimizer(cat)
	res, err := New(o, opts).TuneContext(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	return captureTune(o, w, res)
}

// runReference tunes w with the reference advisor (reference_test.go) on
// a fresh optimizer.
func runReference(w *workload.Workload, cat *catalog.Catalog, opts Options) tuneOutput {
	o := cost.NewOptimizer(cat)
	return captureTune(o, w, referenceTune(o, opts, w))
}

func captureTune(o *cost.Optimizer, w *workload.Workload, res *Result) tuneOutput {
	var buf bytes.Buffer
	Report(o, w, res.Config).Write(&buf, 5)
	hits, prunes, _ := o.ElideStats()
	return tuneOutput{
		fingerprint:    res.Config.Fingerprint(),
		initial:        math.Float64bits(res.InitialCost),
		final:          math.Float64bits(res.FinalCost),
		explored:       res.ConfigsExplored,
		rounds:         res.Rounds,
		optimizerCalls: res.OptimizerCalls,
		report:         buf.Bytes(),
		elideHits:      hits,
		elidePrunes:    prunes,
	}
}

// TestElisionDoesNotChangeOutput pins the elision layer's invisibility
// guarantee (DESIGN.md §16): across every generator, both advisor modes,
// and serial/parallel execution, the chosen configuration, the bitwise
// Initial/FinalCost, ConfigsExplored, Rounds, and the rendered report
// equal the reference advisor's, which answers every probe with a real
// what-if call. It also pins elision's accounting: each reference call is
// either issued or counted as elided exactly once, the only extra issued
// calls are one union-bound prime per query, and at least 30% of the
// reference's calls are elided.
func TestElisionDoesNotChangeOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-generator oracle sweep")
	}
	const n = 48
	var totalHits int64
	for _, genName := range []string{"tpch", "tpcds", "dsb", "realm"} {
		w, cat := elideOracleWorkload(t, genName, n)
		for _, mode := range []struct {
			name string
			opts Options
		}{
			{"dta", DefaultOptions()},
			{"dexter", DexterOptions()},
		} {
			opts := mode.opts
			opts.MaxIndexes = 8
			opts.Parallelism = 1
			ref := runReference(w, cat, opts)
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/parallelism=%d", genName, mode.name, par), func(t *testing.T) {
					opts.Parallelism = par
					got := runTune(t, w, cat, opts)
					totalHits += got.elideHits
					if got.fingerprint != ref.fingerprint {
						t.Fatalf("elided run recommends %q, reference %q", got.fingerprint, ref.fingerprint)
					}
					if got.initial != ref.initial || got.final != ref.final {
						t.Fatalf("elided costs (%x, %x) differ from reference (%x, %x)",
							got.initial, got.final, ref.initial, ref.final)
					}
					if got.explored != ref.explored {
						t.Fatalf("elided run explored %d configs, reference %d", got.explored, ref.explored)
					}
					if got.rounds != ref.rounds {
						t.Fatalf("elided run took %d rounds, reference %d", got.rounds, ref.rounds)
					}
					if !bytes.Equal(got.report, ref.report) {
						t.Fatalf("report diverged:\nelided:\n%s\nreference:\n%s", got.report, ref.report)
					}
					if got.optimizerCalls >= ref.optimizerCalls {
						t.Fatalf("elided run issued %d optimizer calls, reference %d — nothing elided",
							got.optimizerCalls, ref.optimizerCalls)
					}
					if lhs, rhs := got.optimizerCalls+got.elideHits, ref.optimizerCalls+int64(len(w.Queries)); lhs != rhs {
						t.Fatalf("issued %d + elided %d = %d, want reference calls %d + %d union primes = %d",
							got.optimizerCalls, got.elideHits, lhs, ref.optimizerCalls, len(w.Queries), rhs)
					}
					if float64(got.optimizerCalls) > 0.70*float64(ref.optimizerCalls) {
						t.Fatalf("elided run issued %d optimizer calls, over 70%% of the reference's %d",
							got.optimizerCalls, ref.optimizerCalls)
					}
				})
			}
		}
	}
	if totalHits == 0 {
		t.Fatal("no what-if calls elided across the whole sweep")
	}
}

// TestElisionChaosByteIdentity pins the anytime/chaos contract on the
// elided path: a parallel elided tune under deterministic fault injection
// (absorbed by retries, with singleflight coalescing concurrent identical
// plans) recommends the identical configuration with bit-identical costs
// and report as the fault-free elided run.
func TestElisionChaosByteIdentity(t *testing.T) {
	w, cat := elideOracleWorkload(t, "tpch", 40)
	opts := DefaultOptions()
	opts.MaxIndexes = 6
	opts.Parallelism = 4

	run := func(inject bool) (tuneOutput, *cost.Optimizer) {
		o := cost.NewOptimizer(cat)
		if inject {
			o.SetInjector(faults.NewInjector(faults.Config{Seed: 11, ErrorRate: 0.3}))
			o.SetRetryPolicy(cost.RetryPolicy{MaxAttempts: 40, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond})
		}
		res, err := New(o, opts).TuneContext(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		Report(o, w, res.Config).Write(&buf, 5)
		return tuneOutput{
			fingerprint: res.Config.Fingerprint(),
			initial:     math.Float64bits(res.InitialCost),
			final:       math.Float64bits(res.FinalCost),
			explored:    res.ConfigsExplored,
			report:      buf.Bytes(),
		}, o
	}

	plain, _ := run(false)
	chaos, o := run(true)
	if chaos.fingerprint != plain.fingerprint {
		t.Fatalf("chaos run recommends %q, fault-free run %q", chaos.fingerprint, plain.fingerprint)
	}
	if chaos.initial != plain.initial || chaos.final != plain.final {
		t.Fatalf("chaos costs (%x, %x) differ from fault-free (%x, %x)",
			chaos.initial, chaos.final, plain.initial, plain.final)
	}
	if chaos.explored != plain.explored {
		t.Fatalf("chaos run explored %d configs, fault-free %d", chaos.explored, plain.explored)
	}
	if !bytes.Equal(chaos.report, plain.report) {
		t.Fatalf("report diverged:\nchaos:\n%s\nfault-free:\n%s", chaos.report, plain.report)
	}
	if retries, _, _ := o.FaultStats(); retries == 0 {
		t.Fatal("chaos run took no retries — injector not consulted?")
	}
}
