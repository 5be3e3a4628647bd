package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"isum/internal/benchmarks"
	"isum/internal/clitest"
	"isum/internal/cost"
	"isum/internal/faults"
	"isum/internal/workload"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestFlags pins isum's flag surface: the shared benchmark, telemetry
// and failure-model flags plus its own, and nothing else.
func TestFlags(t *testing.T) {
	clitest.CheckFlags(t, []string{
		"benchmark", "cons", "in", "k", "metrics-out", "n", "out",
		"parallelism", "pprof-dir", "seed", "sf", "timeout", "trace",
		"variant",
	})
}

// decodeLog parses a JSON query log as isum writes it.
func decodeLog(t *testing.T, data string) []workload.LogEntry {
	t.Helper()
	var entries []workload.LogEntry
	if err := json.Unmarshal([]byte(data), &entries); err != nil {
		t.Fatalf("output is not a JSON query log: %v", err)
	}
	return entries
}

// checkCompressed fails unless entries is a compressed workload of k
// queries with positive costs and weights.
func checkCompressed(t *testing.T, entries []workload.LogEntry, k int) {
	t.Helper()
	if len(entries) != k {
		t.Fatalf("compressed workload has %d queries, want %d", len(entries), k)
	}
	for i, e := range entries {
		if e.SQL == "" || e.Cost <= 0 || e.Weight <= 0 {
			t.Fatalf("entry %d = %+v, want SQL, cost > 0 and weight > 0", i, e)
		}
	}
}

// TestEveryBenchmark: isum compresses a generated workload of each
// catalog to k weighted queries, with and without -cons, and the output
// bytes are the same at -parallelism 1 and 4.
func TestEveryBenchmark(t *testing.T) {
	for _, bench := range []string{"tpch", "tpcds", "dsb", "realm", "scalem"} {
		for _, cons := range []bool{false, true} {
			name := bench
			if cons {
				name += "-cons"
			}
			t.Run(name, func(t *testing.T) {
				args := func(parallelism string) []string {
					a := []string{"-benchmark", bench, "-n", "60", "-k", "5", "-parallelism", parallelism}
					if cons {
						a = append(a, "-cons")
					}
					return a
				}
				serial := clitest.MustRun(t, args("1")...)
				checkCompressed(t, decodeLog(t, serial.Stdout), 5)
				if par := clitest.MustRun(t, args("4")...); par.Stdout != serial.Stdout {
					t.Error("output differs between -parallelism 1 and 4")
				}
			})
		}
	}
}

// TestVariants: each -variant selects k queries; an unknown one fails
// with ExitFailed and names it.
func TestVariants(t *testing.T) {
	for _, variant := range []string{"isum", "isum-s", "notable", "allpairs"} {
		t.Run(variant, func(t *testing.T) {
			res := clitest.MustRun(t, "-n", "40", "-k", "4", "-variant", variant)
			checkCompressed(t, decodeLog(t, res.Stdout), 4)
		})
	}
	t.Run("unknown", func(t *testing.T) {
		res := clitest.Run(t, "-n", "40", "-k", "4", "-variant", "oracle")
		if res.Code != faults.ExitFailed || !strings.Contains(res.Stderr, `unknown variant \"oracle\"`) {
			t.Fatalf("exit %d, stderr:\n%s", res.Code, res.Stderr)
		}
	})
}

// TestInAndOut: -in reads a query log and -out writes the compressed one
// to a file instead of stdout.
func TestInAndOut(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "w.json")
	g := benchmarks.TPCH(10)
	w, err := g.Workload(30, 1)
	if err != nil {
		t.Fatal(err)
	}
	cost.NewOptimizer(g.Cat).FillCosts(w)
	var log bytes.Buffer
	if err := w.Save(&log); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "small.json")
	res := clitest.MustRun(t, "-in", in, "-k", "3", "-out", out)
	if res.Stdout != "" {
		t.Errorf("stdout with -out = %q, want empty", res.Stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	checkCompressed(t, decodeLog(t, string(data)), 3)
	if !strings.Contains(res.Stderr, "selected=3 of=30") {
		t.Errorf("stderr does not report 3 of 30 selected:\n%s", res.Stderr)
	}
}

// TestTelemetryOutputs: -metrics-out writes an export in which every
// fault-free what-if call is one plan computation and no result-cache or
// singleflight counter remains, and -trace prints the phase tree to
// stderr.
func TestTelemetryOutputs(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.json")
	res := clitest.MustRun(t, "-n", "60", "-k", "5", "-trace", "-metrics-out", metrics)
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var ex struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(data, &ex); err != nil {
		t.Fatal(err)
	}
	counters := map[string]int64{}
	for _, c := range ex.Counters {
		counters[c.Name] = c.Value
		if strings.HasPrefix(c.Name, "cost/cache/") || strings.HasSuffix(c.Name, "singleflight_waits") {
			t.Errorf("export has counter %q of the retired result cache", c.Name)
		}
	}
	calls, plans := counters["cost/whatif/calls"], counters["cost/whatif/plans"]
	if calls == 0 || plans != calls {
		t.Errorf("calls %d, plans %d: want plans = calls > 0", calls, plans)
	}
	for _, span := range []string{"isum/fill-costs", "core/compress"} {
		if !strings.Contains(res.Stderr, span+"  ") {
			t.Errorf("-trace tree has no %s span:\n%s", span, res.Stderr)
		}
	}
}

// TestExitCodes: an unknown benchmark fails with ExitFailed; a deadline
// that expires before compression exits ExitPartial with the best-so-far
// (here empty) selection.
func TestExitCodes(t *testing.T) {
	res := clitest.Run(t, "-benchmark", "oracle")
	if res.Code != faults.ExitFailed || !strings.Contains(res.Stderr, "unknown benchmark") {
		t.Errorf("unknown benchmark: exit %d, stderr:\n%s", res.Code, res.Stderr)
	}
	res = clitest.Run(t, "-n", "40", "-k", "4", "-timeout", "1ns")
	if res.Code != faults.ExitPartial {
		t.Fatalf("expired deadline: exit %d, want %d; stderr:\n%s", res.Code, faults.ExitPartial, res.Stderr)
	}
	if entries := decodeLog(t, res.Stdout); len(entries) != 0 {
		t.Errorf("expired deadline selected %d queries, want 0", len(entries))
	}
}
