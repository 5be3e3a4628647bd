// Command benchjson converts `go test -bench` output on stdin to a JSON
// report on stdout, pairing each benchmark's baseline and optimised
// variants into a speedup figure. Recognised pairs, per benchmark base
// name: parallelism=1 vs parallelism=max, cons=off vs cons=on, and
// elide=off vs elide=on. scripts/ci.sh uses it to write
// BENCH_parallel.json, BENCH_cons.json and BENCH_whatif.json so the perf
// trajectories of the parallel, hash-consed and elided pipelines are
// tracked in-repo.
//
// Custom b.ReportMetric units ("*/op" beyond the standard three) are kept
// per benchmark under "metrics"; for elide pairs reporting
// "whatif-calls/op", the report also carries call_reductions — the
// fraction of what-if optimizer calls the elided variant avoided.
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
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"` // custom b.ReportMetric units
}

// report is the whole document.
type report struct {
	Goos       string             `json:"goos,omitempty"`
	Goarch     string             `json:"goarch,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Gomaxprocs int                `json:"gomaxprocs"`
	Benchmarks []result           `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups"`
	// CallReductions maps a benchmark base name to the fraction of
	// what-if optimizer calls its elide=on variant avoided versus
	// elide=off (from the custom whatif-calls/op metric).
	CallReductions map[string]float64 `json:"call_reductions,omitempty"`
	Note           string             `json:"note"`
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
	// parallelism=1/parallelism=max, cons=off/cons=on, elide=off/elide=on.
	serial := map[string]float64{}
	parallel := map[string]float64{}
	callsOff := map[string]float64{}
	callsOn := map[string]float64{}
	for _, r := range rep.Benchmarks {
		base, variant, ok := strings.Cut(r.Name, "/")
		if !ok {
			continue
		}
		switch variant {
		case "parallelism=1", "cons=off", "elide=off":
			serial[base] = r.NsPerOp
			if c, ok := r.Metrics["whatif-calls/op"]; ok {
				callsOff[base] = c
			}
		case "parallelism=max", "cons=on", "elide=on":
			parallel[base] = r.NsPerOp
			if c, ok := r.Metrics["whatif-calls/op"]; ok {
				callsOn[base] = c
			}
		}
	}
	for base, s := range serial {
		if p, ok := parallel[base]; ok && p > 0 {
			rep.Speedups[base] = s / p
		}
	}
	for base, off := range callsOff {
		if on, ok := callsOn[base]; ok && off > 0 {
			if rep.CallReductions == nil {
				rep.CallReductions = map[string]float64{}
			}
			rep.CallReductions[base] = 1 - on/off
		}
	}
	if rep.Gomaxprocs <= 1 {
		rep.Note = "single-core runner: parallelism=max degenerates to the serial path, those speedups are ~1.0x by construction (cons=off/cons=on and elide=off/elide=on pairs are unaffected); the parallel speedup targets apply to GOMAXPROCS >= 2"
	} else {
		rep.Note = "speedup = baseline ns/op (parallelism=1, cons=off, elide=off) divided by optimised ns/op (parallelism=max, cons=on, elide=on); call_reductions = fraction of what-if optimizer calls avoided by elide=on"
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
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if strings.HasSuffix(unit, "/op") {
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			}
		}
	}
	return r, procs, r.NsPerOp > 0
}
