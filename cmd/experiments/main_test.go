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
		"fast", "list", "metrics-out", "out", "parallelism", "pprof-dir",
		"seed", "sf", "timeout", "trace",
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
// telemetry breakdown, in which every what-if call is one plan
// computation and no result-cache or singleflight row remains.
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
		if strings.HasPrefix(f[0], "cost/cache/") || strings.HasSuffix(f[0], "singleflight_waits") {
			t.Errorf("breakdown has row %q of the retired result cache", f[0])
		}
		if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
			rows[f[0]] = v
		}
	}
	calls, plans := rows["cost/whatif/calls"], rows["cost/whatif/plans"]
	if calls == 0 || plans != calls {
		t.Errorf("calls %d, plans %d: want plans = calls > 0\n%s", calls, plans, breakdown)
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

// TestExpiredDeadline: a deadline that expires before the first
// workload is costed stops the run with ExitPartial and no table.
func TestExpiredDeadline(t *testing.T) {
	res := clitest.Run(t, "-fast", "-timeout", "1ns", "table2")
	if res.Code != faults.ExitPartial {
		t.Fatalf("exit %d, want %d; stderr:\n%s", res.Code, faults.ExitPartial, res.Stderr)
	}
	if res.Stdout != "" {
		t.Errorf("expired deadline printed\n%s\nwant nothing", res.Stdout)
	}
	if !strings.Contains(res.Stderr, "deadline reached") {
		t.Errorf("stderr does not say the deadline stopped the run:\n%s", res.Stderr)
	}
}
