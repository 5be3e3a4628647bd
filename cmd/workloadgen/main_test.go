package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"isum/internal/benchmarks"
	"isum/internal/catalog"
	"isum/internal/clitest"
	"isum/internal/faults"
	"isum/internal/workload"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestFlags pins workloadgen's flag surface: the shared benchmark,
// telemetry and failure-model flags plus its own, and nothing else.
func TestFlags(t *testing.T) {
	clitest.CheckFlags(t, []string{
		"benchmark", "catalog-out", "metrics-out", "n", "out", "pprof-dir",
		"seed", "sf", "timeout", "trace",
	})
}

func decodeLog(t *testing.T, data string) []workload.LogEntry {
	t.Helper()
	var entries []workload.LogEntry
	if err := json.Unmarshal([]byte(data), &entries); err != nil {
		t.Fatalf("output is not a JSON query log: %v", err)
	}
	return entries
}

// TestSeededLog: the log has -n costed queries, is the same for the same
// -seed and differs for another.
func TestSeededLog(t *testing.T) {
	a := clitest.MustRun(t, "-benchmark", "realm", "-n", "30", "-seed", "1")
	entries := decodeLog(t, a.Stdout)
	if len(entries) != 30 {
		t.Fatalf("log has %d queries, want 30", len(entries))
	}
	for i, e := range entries {
		if e.SQL == "" || e.Cost <= 0 {
			t.Fatalf("entry %d = %+v, want SQL and a cost > 0", i, e)
		}
	}
	if b := clitest.MustRun(t, "-benchmark", "realm", "-n", "30", "-seed", "1"); b.Stdout != a.Stdout {
		t.Error("two runs with -seed 1 wrote different logs")
	}
	if c := clitest.MustRun(t, "-benchmark", "realm", "-n", "30", "-seed", "2"); c.Stdout == a.Stdout {
		t.Error("-seed 1 and -seed 2 wrote the same log")
	}
}

// TestOutAndCatalogOut: -out writes the log to a file and -catalog-out
// exports the benchmark catalog as JSON that catalog.LoadJSON reads back.
func TestOutAndCatalogOut(t *testing.T) {
	dir := t.TempDir()
	out, catOut := filepath.Join(dir, "w.json"), filepath.Join(dir, "cat.json")
	res := clitest.MustRun(t, "-benchmark", "tpch", "-sf", "1", "-n", "22", "-out", out, "-catalog-out", catOut)
	if res.Stdout != "" {
		t.Errorf("stdout with -out = %q, want empty", res.Stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(decodeLog(t, string(data))); n != 22 {
		t.Errorf("-out log has %d queries, want 22", n)
	}
	f, err := os.Open(catOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cat, err := catalog.LoadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cat.TotalSizeBytes(), benchmarks.TPCH(1).Cat.TotalSizeBytes(); got != want {
		t.Errorf("exported catalog size %d bytes, want the sf 1 TPC-H catalog's %d", got, want)
	}
	if !strings.Contains(res.Stderr, "benchmark=TPC-H queries=22") {
		t.Errorf("stderr does not report the generated workload:\n%s", res.Stderr)
	}
}

// TestExpiredDeadline: a deadline that expires before cost filling still
// emits the generated queries, with zero costs, and exits ExitPartial.
func TestExpiredDeadline(t *testing.T) {
	res := clitest.Run(t, "-n", "10", "-timeout", "1ns")
	if res.Code != faults.ExitPartial {
		t.Fatalf("exit %d, want %d; stderr:\n%s", res.Code, faults.ExitPartial, res.Stderr)
	}
	entries := decodeLog(t, res.Stdout)
	if len(entries) != 10 {
		t.Fatalf("log has %d queries, want 10", len(entries))
	}
	for i, e := range entries {
		if e.Cost != 0 {
			t.Fatalf("entry %d has cost %g, want 0 after the deadline", i, e.Cost)
		}
	}
}
