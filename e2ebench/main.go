// Command e2ebench is the repository's end-to-end benchmark: for each
// workload it turns generated query logs into index recommendations
// (workload.Load → core.Compressor.CompressContext → advisor.TuneContext),
// checks every output, and prints each metric by name with its unit. The
// last line of standard output is a JSON object with the run's result.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh -workload tpch-2200 -seed 1 -seconds 30 -trace 0
//
// See README.md for the workloads, the metrics, and which end-to-end metric
// each per-layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "workload seed; 1 reproduces the experiments' workloads")
	seconds := flag.Float64("seconds", 10, "length of the measured window, in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	spansDir := flag.String("spans-dir", "", "directory a traced run writes its spans to (empty: not written)")
	flag.Parse()

	sp, err := lookupSpec(*name)
	if err != nil || (*trace != 0 && *trace != 1) || !(*seconds >= 0) {
		fmt.Fprintf(os.Stderr, "e2ebench: need -workload (one of %s), -trace 0 or 1, and -seconds >= 0\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	rc := runConfig{
		spec:   sp,
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
	}
	if rc.trace && *spansDir != "" {
		rc.spansTo = filepath.Join(*spansDir, fmt.Sprintf("spans-%s-seed%d.json", sp.name, *seed))
	}
	rep, err := run(context.Background(), rc, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
