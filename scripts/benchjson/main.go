// Command benchjson converts `go test -bench` output on stdin to a JSON
// report on stdout, pairing each benchmark's baseline and optimised
// variants into a speedup figure. Recognised pairs, per benchmark base
// name: parallelism=1 vs parallelism=max, and cons=off vs cons=on.
// scripts/ci.sh uses it to write the BENCH_*.json files (BENCH_parallel.json
// and BENCH_cons.json carry the pairs) so the perf trajectories of the
// parallel and hash-consed pipelines are tracked in-repo.
//
// Benchmark lines that fail to parse are reported on stderr instead of
// being dropped silently, and an input containing zero parseable
// benchmarks is an error — a CI bench step that produced nothing must
// fail, not write an empty report.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// result is one benchmark line.
type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// report is the whole document.
type report struct {
	Goos       string             `json:"goos,omitempty"`
	Goarch     string             `json:"goarch,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Gomaxprocs int                `json:"gomaxprocs"`
	Benchmarks []result           `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups"`
	Note       string             `json:"note,omitempty"` // set only beside speedups
}

func main() {
	if err := run(os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// run converts bench output on in to the JSON report on out, warning on
// warn about Benchmark lines it could not parse. It returns an error when
// reading or encoding fails, or when no benchmark parsed at all.
func run(in io.Reader, out, warn io.Writer) error {
	rep := report{Gomaxprocs: 1, Speedups: map[string]float64{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, procs, ok := parseLine(line)
			if !ok {
				fmt.Fprintf(warn, "benchjson: skipping unparsed benchmark line: %q\n", line)
				continue
			}
			rep.Benchmarks = append(rep.Benchmarks, r)
			if procs > rep.Gomaxprocs {
				rep.Gomaxprocs = procs
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return errors.New("no benchmark lines parsed; refusing to write an empty report")
	}

	// Pair each base's baseline variant with its optimised counterpart:
	// parallelism=1/parallelism=max, cons=off/cons=on.
	serial := map[string]float64{}
	parallel := map[string]float64{}
	for _, r := range rep.Benchmarks {
		base, variant, ok := strings.Cut(r.Name, "/")
		if !ok {
			continue
		}
		switch variant {
		case "parallelism=1", "cons=off":
			serial[base] = r.NsPerOp
		case "parallelism=max", "cons=on":
			parallel[base] = r.NsPerOp
		}
	}
	for base, s := range serial {
		if p, ok := parallel[base]; ok && p > 0 {
			rep.Speedups[base] = s / p
		}
	}
	switch {
	case len(rep.Speedups) == 0:
	case rep.Gomaxprocs <= 1:
		rep.Note = "single-core runner: parallelism=max degenerates to the serial path, those speedups are ~1.0x by construction (cons=off/cons=on pairs are unaffected); the parallel speedup targets apply to GOMAXPROCS >= 2"
	default:
		rep.Note = "speedup = baseline ns/op (parallelism=1, cons=off) divided by optimised ns/op (parallelism=max, cons=on)"
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// parseLine parses one "BenchmarkX/sub-N  iters  123 ns/op [456 B/op 7
// allocs/op]" line; the -N suffix (present when GOMAXPROCS > 1) is
// stripped and returned.
func parseLine(line string) (result, int, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return result{}, 0, false
	}
	name := fields[0]
	procs := 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			procs = n
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, 0, false
	}
	r := result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	return r, procs, r.NsPerOp > 0
}
