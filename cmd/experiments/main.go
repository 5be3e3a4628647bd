// Command experiments regenerates the paper's evaluation tables and
// figures.
//
// Usage:
//
//	experiments [-fast] [-sf 10] [-seed 1] [-out results.txt] [fig9a table3 ...]
//
// With no experiment ids, every registered experiment runs (see
// DESIGN.md §3 for the id → paper figure/table mapping).
//
// Exit codes: 0 all experiments completed, 1 a real failure occurred,
// 3 the -timeout deadline cut the run short.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"isum/internal/experiments"
	"isum/internal/faults"
	"isum/internal/features"
	"isum/internal/parallel"
	"isum/internal/telemetry"
	"isum/internal/workload"
)

var logger = telemetry.NewLogger(os.Stderr)

func main() {
	fast := flag.Bool("fast", false, "use reduced workload sizes (minutes, not hours)")
	sf := flag.Float64("sf", 10, "benchmark scale factor")
	seed := flag.Int64("seed", 1, "workload generation seed")
	out := flag.String("out", "", "output file (default stdout)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	parallelism := flag.Int("parallelism", 0,
		"worker goroutines for compression and tuning hot paths (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
	var tf telemetry.Flags
	tf.Register(flag.CommandLine)
	var ff faults.Flags
	ff.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, id := range experiments.Names() {
			fmt.Println(id)
		}
		return
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	trun, err := tf.Open()
	if err != nil {
		fatal(err)
	}
	parallel.SetTelemetry(trun.Registry)
	features.SetTelemetry(trun.Registry)
	workload.SetTelemetry(trun.Registry)

	ctx, cancel := ff.Context()
	defer cancel()
	inj, err := ff.BuildInjector(trun.Registry)
	if err != nil {
		fatal(err)
	}
	cfg := experiments.Config{
		Scale: *sf, Seed: *seed, Fast: *fast,
		Parallelism: *parallelism, Telemetry: trun.Registry,
		Ctx: ctx, Retry: ff.Policy(), Injector: inj,
	}
	env := experiments.NewEnv(cfg)

	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.Names()
	}
	for _, id := range ids {
		start := time.Now() //lint:allow determinism per-figure elapsed reporting; results never read the clock
		if err := experiments.Run(env, id, w); err != nil {
			if faults.IsCancellation(err) {
				logger.Warn("deadline reached, stopping (partial output above)", "experiment", id)
				if cerr := trun.Close(); cerr != nil {
					logger.Error("closing telemetry", "err", cerr)
				}
				os.Exit(faults.ExitPartial)
			}
			fatal(err)
		}
		logger.Info("experiment done", "id", id,
			"elapsed", time.Since(start).Round(time.Millisecond).String())
	}
	if err := trun.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	logger.Error("fatal", "err", err)
	os.Exit(faults.ExitFailed)
}
