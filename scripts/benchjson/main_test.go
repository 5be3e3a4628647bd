package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
cpu: Test CPU
BenchmarkCompress/parallelism=1-8   	      10	 100000000 ns/op
BenchmarkCompress/parallelism=max-8 	      40	  25000000 ns/op
BenchmarkTune/parallelism=1-8       	       5	 200000000 ns/op
BenchmarkTune/parallelism=max-8     	      10	 100000000 ns/op
BenchmarkCompressConsed/cons=off-8  	       1	8000000000 ns/op
BenchmarkCompressConsed/cons=on-8   	      20	 100000000 ns/op
PASS
`

func TestRun(t *testing.T) {
	var out, warn bytes.Buffer
	if err := run(strings.NewReader(benchOutput), &out, &warn); err != nil {
		t.Fatal(err)
	}
	if warn.Len() != 0 {
		t.Errorf("unexpected warnings: %s", warn.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(rep.Benchmarks) != 6 {
		t.Fatalf("parsed %d benchmarks, want 6", len(rep.Benchmarks))
	}
	if rep.Gomaxprocs != 8 {
		t.Errorf("gomaxprocs = %d, want 8", rep.Gomaxprocs)
	}
	if got := rep.Speedups["BenchmarkCompress"]; got != 4 {
		t.Errorf("BenchmarkCompress speedup = %v, want 4", got)
	}
	if got := rep.Speedups["BenchmarkTune"]; got != 2 {
		t.Errorf("BenchmarkTune speedup = %v, want 2", got)
	}
	if got := rep.Speedups["BenchmarkCompressConsed"]; got != 80 {
		t.Errorf("BenchmarkCompressConsed speedup = %v, want 80", got)
	}
	if rep.Note == "" {
		t.Error("report with speedups carries no note")
	}
}

func TestRunWarnsOnUnparsedLines(t *testing.T) {
	in := benchOutput + "BenchmarkBroken/parallelism=1-8 garbage fields here\n"
	var out, warn bytes.Buffer
	if err := run(strings.NewReader(in), &out, &warn); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warn.String(), "BenchmarkBroken") {
		t.Errorf("warning does not name the skipped line: %q", warn.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 6 {
		t.Errorf("parsed %d benchmarks, want the 6 valid ones", len(rep.Benchmarks))
	}
}

func TestRunFailsOnZeroBenchmarks(t *testing.T) {
	var out, warn bytes.Buffer
	err := run(strings.NewReader("PASS\nok  	isum	1.0s\n"), &out, &warn)
	if err == nil {
		t.Fatal("run accepted input with zero benchmarks")
	}
	if out.Len() != 0 {
		t.Errorf("wrote a report despite the error: %s", out.String())
	}
}

// TestRunOmitsNoteWithoutPairs checks that a report with no
// baseline/optimised pair carries no speedup note.
func TestRunOmitsNoteWithoutPairs(t *testing.T) {
	in := "goos: linux\nBenchmarkJaccard/overlap=50-2   100   1234 ns/op   0 B/op   0 allocs/op\nPASS\n"
	var out, warn bytes.Buffer
	if err := run(strings.NewReader(in), &out, &warn); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if note, ok := doc["note"]; ok {
		t.Errorf("report without speedups carries a note: %q", note)
	}
	if sp, ok := doc["speedups"].(map[string]any); !ok || len(sp) != 0 {
		t.Errorf("speedups = %v, want an empty object", doc["speedups"])
	}
}
