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
BenchmarkTuneElided/elide=off-8     	       2	2000000000 ns/op	         0 elided/op	     80000 whatif-calls/op
BenchmarkTuneElided/elide=on-8      	       4	1000000000 ns/op	     42000 elided/op	     40000 whatif-calls/op
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
	if len(rep.Benchmarks) != 8 {
		t.Fatalf("parsed %d benchmarks, want 8", len(rep.Benchmarks))
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
	if got := rep.Speedups["BenchmarkTuneElided"]; got != 2 {
		t.Errorf("BenchmarkTuneElided speedup = %v, want 2", got)
	}
	if got := rep.CallReductions["BenchmarkTuneElided"]; got != 0.5 {
		t.Errorf("BenchmarkTuneElided call reduction = %v, want 0.5", got)
	}
	var elided *result
	for i := range rep.Benchmarks {
		if rep.Benchmarks[i].Name == "BenchmarkTuneElided/elide=on" {
			elided = &rep.Benchmarks[i]
		}
	}
	if elided == nil {
		t.Fatal("elide=on variant missing from benchmarks")
	}
	if got := elided.Metrics["whatif-calls/op"]; got != 40000 {
		t.Errorf("whatif-calls/op metric = %v, want 40000", got)
	}
	if got := elided.Metrics["elided/op"]; got != 42000 {
		t.Errorf("elided/op metric = %v, want 42000", got)
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
	if len(rep.Benchmarks) != 8 {
		t.Errorf("parsed %d benchmarks, want the 8 valid ones", len(rep.Benchmarks))
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
