// Command isum compresses a workload for index tuning.
//
// It reads a JSON query log (as produced by workloadgen, or harvested from
// a real system) against a named benchmark catalog, runs ISUM, and writes
// the compressed workload — k queries with weights — as a JSON log ready
// for the tune command.
//
// Usage:
//
//	isum -benchmark tpch -in tpch.json -k 20 -variant isum-s -out small.json
//
// Telemetry: -trace prints the phase tree (build-states, per-round greedy
// spans) to stderr, -metrics-out writes the JSON metrics+span export, and
// -pprof-dir captures cpu/heap profiles around the run (DESIGN.md §8).
package main

import (
	"flag"
	"fmt"
	"os"

	"isum/internal/benchmarks"
	"isum/internal/core"
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
	in := flag.String("in", "", "input workload JSON (default: generate the benchmark workload)")
	n := flag.Int("n", 473, "generated workload size (ignored with -in)")
	k := flag.Int("k", 20, "compressed workload size")
	variant := flag.String("variant", "isum",
		"isum (rule-based), isum-s (stats-based), notable, allpairs")
	out := flag.String("out", "", "output file (default stdout)")
	parallelism := flag.Int("parallelism", 0,
		"worker goroutines for compression hot paths (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
	cons := flag.Bool("cons", false,
		"hash-cons queries by template before selection: one state per distinct template, utilities pooled per Algorithm 4")
	var tf telemetry.Flags
	tf.Register(flag.CommandLine)
	var ff faults.Flags
	ff.Register(flag.CommandLine)
	flag.Parse()

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

	var w *workload.Workload
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		w, err = workload.Load(g.Cat, f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		w, err = g.Workload(*n, bf.Seed)
		if err != nil {
			fatal(err)
		}
		// Generated workloads carry no costs; fill them with the what-if
		// optimizer so utilities reflect the paper's input contract (and so
		// the telemetry export shows the what-if call and plan counts).
		sp := reg.Start("isum/fill-costs")
		o := cost.NewOptimizerWithTelemetry(g.Cat, cost.DefaultParams(), reg)
		err = o.FillCostsCtx(ctx, w, *parallelism)
		sp.End()
		if err != nil {
			if !faults.IsCancellation(err) {
				fatal(err)
			}
			// Deadline hit while filling costs: fall through — compression
			// under the expired context returns an empty best-so-far result
			// and the binary exits with the partial code.
			logger.Warn("deadline reached while filling costs")
		}
	}

	var opts core.Options
	switch *variant {
	case "isum":
		opts = core.DefaultOptions()
	case "isum-s":
		opts = core.ISUMSOptions()
	case "notable":
		opts = core.NoTableOptions()
	case "allpairs":
		opts = core.DefaultOptions()
		opts.Algorithm = core.AllPairs
	default:
		fatal(fmt.Errorf("unknown variant %q", *variant))
	}
	opts.Parallelism = *parallelism
	opts.ConsTemplates = *cons
	opts.Telemetry = reg

	comp := core.New(opts)
	res, err := comp.CompressContext(ctx, w, *k)
	if err != nil {
		fatal(err)
	}
	cw := w.WeightedSubset(res.Indices, res.Weights)

	f := os.Stdout
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
	}
	if err := cw.Save(f); err != nil {
		fatal(err)
	}
	logger.Info("compressed workload",
		"variant", comp.Name(), "selected", cw.Len(), "of", w.Len(),
		"elapsed", res.Elapsed.Round(1000).String())
	for i, idx := range res.Indices {
		logger.Info("selection",
			"query", idx,
			"weight", fmt.Sprintf("%.4f", res.Weights[i]),
			"benefit", fmt.Sprintf("%.4f", res.SelectionBenefits[i]))
	}
	if err := trun.Close(); err != nil {
		fatal(err)
	}
	if res.Partial {
		logger.Warn("deadline reached; output is the best-so-far selection", "rounds", res.Rounds)
		os.Exit(faults.ExitPartial)
	}
}

func fatal(err error) {
	logger.Error("fatal", "err", err)
	os.Exit(faults.ExitFailed)
}
