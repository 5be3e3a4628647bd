// Command workloadgen emits a benchmark workload as a JSON query log with
// optimizer-estimated costs — the input-workload format of Section 2.2.
//
// Usage:
//
//	workloadgen -benchmark tpch -n 2200 -sf 10 -seed 1 -out tpch.json
package main

import (
	"flag"
	"os"

	"isum/internal/benchmarks"
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
	n := flag.Int("n", 0, "number of query instances (default: paper's Table 2 size)")
	out := flag.String("out", "", "output file (default stdout)")
	catalogOut := flag.String("catalog-out", "", "also export the catalog (schema + statistics) as JSON")
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
	if *n == 0 {
		defaults := map[string]int{"TPC-H": 2200, "TPC-DS": 9100, "DSB": 520, "Real-M": 473, "Scale-M": 100000}
		*n = defaults[g.Name]
	}
	sp := reg.Start("workloadgen/generate")
	w, err := g.Workload(*n, bf.Seed)
	if err != nil {
		fatal(err)
	}
	sp.End()
	sp = reg.Start("workloadgen/fill-costs")
	o := cost.NewOptimizerWithTelemetry(g.Cat, cost.DefaultParams(), reg)
	if err := ff.Apply(o); err != nil {
		fatal(err)
	}
	fillErr := o.FillCostsCtx(ctx, w, 0)
	sp.End()
	partial := false
	if fillErr != nil {
		if !faults.IsCancellation(fillErr) {
			fatal(fillErr)
		}
		// Deadline hit: still emit the generated queries (costs stay zero so
		// downstream tools can re-fill them) and exit with the partial code.
		partial = true
		logger.Warn("deadline reached while filling costs; emitting zero-cost log")
	}

	f := os.Stdout
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
	}
	if err := w.Save(f); err != nil {
		fatal(err)
	}
	if *catalogOut != "" {
		cf, err := os.Create(*catalogOut)
		if err != nil {
			fatal(err)
		}
		defer cf.Close()
		if err := g.Cat.SaveJSON(cf); err != nil {
			fatal(err)
		}
	}
	logger.Info("generated workload",
		"benchmark", g.Name, "queries", w.Len(),
		"templates", w.NumTemplates(), "tables", w.TablesReferenced())
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
