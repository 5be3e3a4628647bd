package experiments

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"isum/internal/core"
)

// goroutineRecorder is a fault injector that injects nothing: it records
// the goroutines its what-if calls came from.
type goroutineRecorder struct {
	mu  sync.Mutex
	ids map[string]bool
}

func (r *goroutineRecorder) PlanFault(string, string, int) error {
	id := goroutineID()
	r.mu.Lock()
	r.ids[id] = true
	r.mu.Unlock()
	return nil
}

// seen returns the recorded goroutine IDs and forgets them.
func (r *goroutineRecorder) seen() map[string]bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := r.ids
	r.ids = map[string]bool{}
	return ids
}

// goroutineID returns the calling goroutine's ID, read off the header of
// its stack trace ("goroutine 7 [running]:").
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestEvaluationHonoursParallelism: at Parallelism 1 an experiment runs
// every what-if call on the calling goroutine — cost filling, tuning and
// the evaluation on the full workload alike — in a figure runner (Fig 3)
// and in RunPipeline. The injector sees every call, so it sees a worker
// goroutine as soon as any step fans out.
func TestEvaluationHonoursParallelism(t *testing.T) {
	// Parallelism 0 must mean more than one worker, or a step that
	// ignores the setting would still run serially.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	self := goroutineID()
	rec := &goroutineRecorder{ids: map[string]bool{}}
	cfg := FastConfig()
	cfg.Parallelism = 1
	cfg.Injector = rec
	env := NewEnv(cfg)
	check := func(step string) {
		t.Helper()
		ids := rec.seen()
		if len(ids) == 0 {
			t.Fatalf("%s: the injector saw no what-if call", step)
		}
		for id := range ids {
			if id != self {
				t.Errorf("%s: a what-if call ran on goroutine %s, not the caller's %s", step, id, self)
			}
		}
	}

	runExp(t, Fig3, env)
	check("Fig 3")

	w, o, err := env.Workload("TPC-H")
	if err != nil {
		t.Fatal(err)
	}
	aopts, err := env.AdvisorOptions("TPC-H")
	if err != nil {
		t.Fatal(err)
	}
	rec.seen()
	if _, err := RunPipeline(cfg.Context(), o, w, core.New(core.DefaultOptions()), 5, aopts); err != nil {
		t.Fatal(err)
	}
	check("RunPipeline")
}
