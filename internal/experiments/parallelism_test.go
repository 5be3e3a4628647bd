package experiments

import (
	"runtime"
	"testing"

	"isum/internal/core"
	"isum/internal/index"
	"isum/internal/parallel"
	"isum/internal/telemetry"
)

// TestEvaluationHonoursParallelism: at Parallelism 1 RunPipeline
// compresses, tunes and evaluates on the full workload on the calling
// goroutine, and so does Env.evaluate. The pool's queue-wait histogram
// records one observation per worker it spawns, so its count must not
// grow across either; at Parallelism 0 it must grow across both, or this
// test would pass whatever the steps did. The TPC-H workload is built
// first, outside the measured spans, because building one parses on
// every core whatever the setting; for the same reason Fig 3, which
// builds its own workload, cannot be measured whole this way.
func TestEvaluationHonoursParallelism(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	reg := telemetry.New()
	parallel.SetTelemetry(reg)
	defer parallel.SetTelemetry(nil)
	spawned := func() int64 { return reg.Histogram("parallel/pool/queue_wait_nanos", nil).Count() }

	env := NewEnv(FastConfig())
	w, o, err := env.Workload("TPC-H")
	if err != nil {
		t.Fatal(err)
	}
	cfg := index.NewConfiguration(index.New("lineitem", "l_orderkey"))
	for _, parallelism := range []int{1, 0} {
		env.Cfg.Parallelism = parallelism
		aopts, err := env.AdvisorOptions("TPC-H")
		if err != nil {
			t.Fatal(err)
		}
		ctx := env.Cfg.Context()
		before := spawned()
		comp := core.New(env.coreOptions(core.DefaultOptions()))
		if _, err := RunPipeline(ctx, o, w, comp, 5, aopts); err != nil {
			t.Fatal(err)
		}
		pipeline := spawned() - before
		before = spawned()
		if _, _, _, err := env.evaluate(ctx, o, w, cfg); err != nil {
			t.Fatal(err)
		}
		evaluate := spawned() - before
		if parallelism == 1 && (pipeline != 0 || evaluate != 0) {
			t.Errorf("Parallelism 1: RunPipeline spawned %d pool workers, Env.evaluate %d; want 0 and 0", pipeline, evaluate)
		}
		if parallelism == 0 && (pipeline == 0 || evaluate == 0) {
			t.Errorf("Parallelism 0: RunPipeline spawned %d pool workers, Env.evaluate %d; want both above 0", pipeline, evaluate)
		}
	}
}

// TestCompressionHonoursParallelism: at Parallelism 1 the figures
// compress on the calling goroutine, ISUM's state building and greedy
// included. The pool's queue-wait histogram records one observation per
// worker it spawns, so its count must not grow while the figures run.
// The workloads are built first, outside the measured span, because
// building one parses on every core whatever the setting.
func TestCompressionHonoursParallelism(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	reg := telemetry.New()
	parallel.SetTelemetry(reg)
	defer parallel.SetTelemetry(nil)
	spawned := func() int64 { return reg.Histogram("parallel/pool/queue_wait_nanos", nil).Count() }

	cfg := FastConfig()
	cfg.Parallelism = 1
	env := NewEnv(cfg)
	for _, name := range []string{"TPC-H", "TPC-DS", "DSB", "Real-M"} {
		if _, _, err := env.Workload(name); err != nil {
			t.Fatal(err)
		}
	}
	for _, fig := range []struct {
		name string
		run  func(*Env) ([]*Table, error)
	}{
		{"Fig 5", Fig5}, {"Fig 8", Fig8}, {"Fig 9a", Fig9a}, {"Fig 13", Fig13},
		{"Fig 14", Fig14}, {"normalisation ablation", ExtraNormAblation},
	} {
		before := spawned()
		runExp(t, fig.run, env)
		if n := spawned() - before; n != 0 {
			t.Errorf("%s spawned %d pool workers at Parallelism 1", fig.name, n)
		}
	}
	// The same figures at the default parallelism do spawn workers, or
	// this test would pass whatever the compressors did.
	env.Cfg.Parallelism = 0
	before := spawned()
	runExp(t, Fig14, env)
	if spawned() == before {
		t.Fatal("Fig 14 spawned no pool worker at Parallelism 0")
	}
}
