package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"isum/internal/benchmarks"
	"isum/internal/clitest"
	"isum/internal/cost"
	"isum/internal/faults"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestFlags pins inspect's flag surface: the shared benchmark, telemetry
// and failure-model flags plus its own, and nothing else.
func TestFlags(t *testing.T) {
	clitest.CheckFlags(t, []string{
		"benchmark", "features", "in", "metrics-out", "n", "pprof-dir",
		"seed", "sf", "timeout", "top", "trace",
	})
}

// TestReport: inspect prints the workload line, then -top templates,
// queries and summary features, each under its heading.
func TestReport(t *testing.T) {
	res := clitest.MustRun(t, "-benchmark", "tpch", "-n", "44", "-top", "3")
	if !strings.HasPrefix(res.Stdout, "workload: 44 queries, ") {
		t.Fatalf("stdout does not open with the 44-query workload line:\n%s", res.Stdout)
	}
	// Query texts are cut at 60 bytes and may span lines, so entries are
	// counted by the prefix that opens each one.
	for _, sec := range []struct {
		heading string
		entry   *regexp.Regexp
	}{
		{"\ntop templates by total cost:\n", regexp.MustCompile(`(?m)^ +\d+ instances  cost `)},
		{"\ntop queries by benefit (utility + influence on summary):\n", regexp.MustCompile(`(?m)^  #\d+ +benefit `)},
		{"\nworkload summary features (top weights):\n", regexp.MustCompile(`(?m)^  \S+ +[0-9.]+$`)},
	} {
		_, body, ok := strings.Cut(res.Stdout, sec.heading)
		if !ok {
			t.Errorf("stdout has no %q section:\n%s", strings.TrimSpace(sec.heading), res.Stdout)
			continue
		}
		body, _, _ = strings.Cut(body, "\n\n")
		if n := len(sec.entry.FindAllString(body, -1)); n != 3 {
			t.Errorf("%q section lists %d entries, want 3:\n%s", strings.TrimSpace(sec.heading), n, body)
		}
	}
}

// TestFeatures: -features adds each top query's feature vector, indented
// under it, and changes nothing else.
func TestFeatures(t *testing.T) {
	plain := clitest.MustRun(t, "-benchmark", "tpch", "-n", "44", "-top", "3")
	withFeatures := clitest.MustRun(t, "-benchmark", "tpch", "-n", "44", "-top", "3", "-features")
	var rest []string
	vectors := 0
	for _, line := range strings.SplitAfter(withFeatures.Stdout, "\n") {
		if strings.HasPrefix(line, "        ") {
			vectors++
			continue
		}
		rest = append(rest, line)
	}
	if vectors == 0 {
		t.Fatalf("-features printed no feature lines:\n%s", withFeatures.Stdout)
	}
	if strings.Join(rest, "") != plain.Stdout {
		t.Errorf("-features changed more than the feature lines:\n%s\nwant\n%s", strings.Join(rest, ""), plain.Stdout)
	}
}

// TestInMatchesGenerated: inspecting a saved, costed log with -in
// reports the same queries as inspecting the generated workload it came
// from.
func TestInMatchesGenerated(t *testing.T) {
	g := benchmarks.TPCH(10)
	w, err := g.Workload(44, 1)
	if err != nil {
		t.Fatal(err)
	}
	cost.NewOptimizer(g.Cat).FillCosts(w)
	var log bytes.Buffer
	if err := w.Save(&log); err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(t.TempDir(), "w.json")
	if err := os.WriteFile(in, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	generated := clitest.MustRun(t, "-benchmark", "tpch", "-n", "44", "-seed", "1", "-top", "5")
	loaded := clitest.MustRun(t, "-benchmark", "tpch", "-in", in, "-top", "5")
	if loaded.Stdout != generated.Stdout {
		t.Errorf("-in report\n%s\ndiffers from the generated workload's\n%s", loaded.Stdout, generated.Stdout)
	}
}

// TestExpiredDeadline: a deadline that expires before cost filling
// still prints the workload line and the template overview, then exits
// ExitPartial before the per-query diagnostics.
func TestExpiredDeadline(t *testing.T) {
	res := clitest.Run(t, "-benchmark", "tpch", "-n", "44", "-top", "3", "-timeout", "1ns")
	if res.Code != faults.ExitPartial {
		t.Fatalf("exit %d, want %d; stderr:\n%s", res.Code, faults.ExitPartial, res.Stderr)
	}
	if !strings.HasPrefix(res.Stdout, "workload: 44 queries, ") || !strings.Contains(res.Stdout, "\ntop templates by total cost:\n") {
		t.Errorf("stdout lacks the workload line or the template overview:\n%s", res.Stdout)
	}
	if strings.Contains(res.Stdout, "top queries by benefit") {
		t.Errorf("per-query diagnostics printed past the deadline:\n%s", res.Stdout)
	}
}
