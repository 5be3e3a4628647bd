package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"isum/internal/clitest"
	"isum/internal/experiments"
	"isum/internal/faults"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestFlags pins experiments' flag surface: the telemetry and
// failure-model flags plus its own, and nothing else.
func TestFlags(t *testing.T) {
	clitest.CheckFlags(t, []string{
		"chaos", "fast", "list", "metrics-out", "out", "parallelism",
		"pprof-dir", "retries", "seed", "sf", "timeout", "trace",
	})
}

// TestList: -list prints every registered experiment id, one a line.
func TestList(t *testing.T) {
	res := clitest.MustRun(t, "-list")
	if want := strings.Join(experiments.Names(), "\n") + "\n"; res.Stdout != want {
		t.Errorf("-list printed\n%s\nwant\n%s", res.Stdout, want)
	}
}

// TestOut: the named experiment's tables go to stdout and, with -out,
// the same bytes to the file; without a telemetry flag no breakdown
// table follows them.
func TestOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "results.txt")
	res := clitest.MustRun(t, "-fast", "-out", out, "table2")
	if !strings.HasPrefix(res.Stdout, "== Table 2: workload summary ==\n") {
		t.Fatalf("stdout does not open with Table 2:\n%s", res.Stdout)
	}
	if strings.Contains(res.Stdout, "== telemetry ") {
		t.Errorf("breakdown printed without a telemetry flag:\n%s", res.Stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != res.Stdout {
		t.Errorf("-out file\n%s\ndiffers from stdout\n%s", data, res.Stdout)
	}
}

// TestBreakdown: with -metrics-out each experiment is followed by its
// telemetry breakdown, whose cache rows are the two totals and partition
// the what-if calls with the singleflight waits.
func TestBreakdown(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.json")
	res := clitest.MustRun(t, "-fast", "-parallelism", "1", "-metrics-out", metrics, "fig8")
	_, breakdown, ok := strings.Cut(res.Stdout, "== telemetry fig8 ==\n")
	if !ok {
		t.Fatalf("no fig8 breakdown in stdout:\n%s", res.Stdout)
	}
	rows := map[string]int64{}
	for _, line := range strings.Split(breakdown, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if strings.HasPrefix(f[0], "cost/cache/") && f[0] != "cost/cache/hits" && f[0] != "cost/cache/misses" {
			t.Errorf("breakdown has cache row %q beyond hits and misses", f[0])
		}
		if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
			rows[f[0]] = v
		}
	}
	calls := rows["cost/whatif/calls"]
	hits, misses, waits := rows["cost/cache/hits"], rows["cost/cache/misses"], rows["cost/elide/singleflight_waits"]
	if calls == 0 || misses == 0 || hits+misses+waits != calls {
		t.Errorf("calls %d, hits %d, misses %d, waits %d: want hits + misses + waits = calls > 0\n%s",
			calls, hits, misses, waits, breakdown)
	}
	if _, err := os.Stat(metrics); err != nil {
		t.Errorf("-metrics-out file not written: %v", err)
	}
}

// TestUnknownExperiment: an unregistered id fails with ExitFailed and
// names it.
func TestUnknownExperiment(t *testing.T) {
	res := clitest.Run(t, "-fast", "fig99")
	if res.Code != faults.ExitFailed || !strings.Contains(res.Stderr, `unknown experiment \"fig99\"`) {
		t.Fatalf("exit %d, stderr:\n%s", res.Code, res.Stderr)
	}
}
