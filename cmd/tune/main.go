// Command tune runs an index advisor on a workload (typically a compressed
// one produced by the isum command) and reports the recommended indexes and
// the improvement on an optional evaluation workload.
//
// Usage:
//
//	tune -benchmark tpch -in small.json -eval tpch.json -max-indexes 20 -storage-mult 3
//
// Telemetry: -trace prints the tuning phase tree (candidate selection,
// merging, per-round enumeration with what-if call deltas) to stderr,
// -metrics-out writes the JSON metrics+span export, and -pprof-dir
// captures cpu/heap profiles around the run (DESIGN.md §8).
package main

import (
	"flag"
	"fmt"
	"os"

	"isum/internal/advisor"
	"isum/internal/benchmarks"
	"isum/internal/catalog"
	"isum/internal/cost"
	"isum/internal/faults"
	"isum/internal/features"
	"isum/internal/parallel"
	"isum/internal/telemetry"
	"isum/internal/workload"
)

var logger = telemetry.NewLogger(os.Stderr)

func main() {
	var bf benchmarks.Flags
	bf.Register(flag.CommandLine)
	in := flag.String("in", "", "workload JSON to tune (required)")
	eval := flag.String("eval", "", "workload JSON to evaluate improvement on (default: the tuned one)")
	maxIndexes := flag.Int("max-indexes", 20, "configuration size constraint (0 = unlimited)")
	storageMult := flag.Float64("storage-mult", 3, "storage budget as a multiple of database size (0 = unlimited)")
	mode := flag.String("advisor", "dta", "advisor flavour: dta or dexter")
	report := flag.Int("report", 0, "with -eval: print a per-query drill-down of the top N improved queries")
	catalogIn := flag.String("catalog", "", "load the catalog from a JSON export instead of the benchmark schema")
	configOut := flag.String("config-out", "", "save the recommended configuration as JSON")
	parallelism := flag.Int("parallelism", 0,
		"worker goroutines for what-if calls (0 = GOMAXPROCS, 1 = serial); recommendations are identical at any setting")
	var tf telemetry.Flags
	tf.Register(flag.CommandLine)
	var ff faults.Flags
	ff.Register(flag.CommandLine)
	flag.Parse()

	if *in == "" {
		fatal(fmt.Errorf("-in is required"))
	}
	trun, err := tf.Open()
	if err != nil {
		fatal(err)
	}
	reg := trun.Registry
	parallel.SetTelemetry(reg)
	features.SetTelemetry(reg)
	workload.SetTelemetry(reg)
	ctx, cancel := ff.Context()
	defer cancel()
	g, err := bf.Generator()
	if err != nil {
		fatal(err)
	}
	if *catalogIn != "" {
		cf, err := os.Open(*catalogIn)
		if err != nil {
			fatal(err)
		}
		cat, err := catalog.LoadJSON(cf)
		cf.Close()
		if err != nil {
			fatal(err)
		}
		g.Cat = cat
	}
	load := func(path string) *workload.Workload {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w, err := workload.Load(g.Cat, f)
		if err != nil {
			fatal(err)
		}
		return w
	}
	w := load(*in)

	var opts advisor.Options
	switch *mode {
	case "dta":
		opts = advisor.DefaultOptions()
	case "dexter":
		opts = advisor.DexterOptions()
	default:
		fatal(fmt.Errorf("unknown advisor %q", *mode))
	}
	opts.MaxIndexes = *maxIndexes
	opts.Parallelism = *parallelism
	opts.Telemetry = reg
	if *storageMult > 0 {
		opts.StorageBudget = int64(*storageMult * float64(g.Cat.TotalSizeBytes()))
	}

	o := cost.NewOptimizerWithTelemetry(g.Cat, cost.DefaultParams(), reg)
	res, err := advisor.New(o, opts).TuneContext(ctx, w)
	if err != nil {
		fatal(err)
	}
	partial := res.Partial
	if partial {
		logger.Warn("deadline reached; recommendation is the best-so-far configuration", "rounds", res.Rounds)
	}

	fmt.Printf("recommended %d indexes in %v (%d optimizer calls, %d configs explored)\n",
		res.Config.Len(), res.Elapsed.Round(1000), res.OptimizerCalls, res.ConfigsExplored)
	for _, ix := range res.Config.Indexes() {
		fmt.Printf("  %s  (%.1f MB)\n", ix, float64(ix.SizeBytes(g.Cat))/(1<<20))
	}
	fmt.Printf("improvement on tuned workload: %.2f%%\n", res.ImprovementPercent())

	if *configOut != "" {
		f, err := os.Create(*configOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := res.Config.SaveJSON(f); err != nil {
			fatal(err)
		}
	}

	if *eval != "" {
		ew := load(*eval)
		sp := reg.Start("tune/evaluate")
		pct, base, final, err := advisor.EvaluateImprovementContext(ctx, o, ew, res.Config, *parallelism)
		sp.End()
		switch {
		case err == nil:
			fmt.Printf("improvement on evaluation workload: %.2f%% (cost %.0f -> %.0f)\n", pct, base, final)
			if *report > 0 {
				advisor.Report(o, ew, res.Config).Write(os.Stdout, *report)
			}
		case faults.IsCancellation(err):
			partial = true
			logger.Warn("deadline reached before the evaluation workload could be costed")
		default:
			fatal(err)
		}
	}
	if err := trun.Close(); err != nil {
		fatal(err)
	}
	if partial {
		os.Exit(faults.ExitPartial)
	}
}

func fatal(err error) {
	logger.Error("fatal", "err", err)
	os.Exit(faults.ExitFailed)
}
