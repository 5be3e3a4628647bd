// Command inspect prints what ISUM sees in a workload: template clusters,
// per-query utilities, feature vectors, and the workload summary features —
// useful for understanding why compression picked what it picked.
//
// Usage:
//
//	inspect -benchmark tpch -n 44 [-sf 10] [-top 10] [-features]
//	inspect -benchmark tpcds -in workload.json -top 20
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

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
	n := flag.Int("n", 44, "generated workload size (ignored with -in)")
	in := flag.String("in", "", "workload JSON to inspect instead of generating")
	top := flag.Int("top", 10, "how many queries to detail")
	showFeatures := flag.Bool("features", false, "print feature vectors for the top queries")
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
		o := cost.NewOptimizerWithTelemetry(g.Cat, cost.DefaultParams(), reg)
		if err := o.FillCostsCtx(ctx, w, 0); err != nil {
			if !faults.IsCancellation(err) {
				fatal(err)
			}
			logger.Warn("deadline reached while filling costs")
		}
	}

	fmt.Printf("workload: %d queries, %d templates, %d tables referenced, total cost %.0f\n\n",
		w.Len(), w.NumTemplates(), w.TablesReferenced(), w.TotalCost())

	// Template clusters by frequency.
	type tmpl struct {
		id    string
		count int
		cost  float64
	}
	byID := map[string]*tmpl{}
	for _, q := range w.Queries {
		tm := byID[q.TemplateID]
		if tm == nil {
			tm = &tmpl{id: q.TemplateID}
			byID[q.TemplateID] = tm
		}
		tm.count++
		tm.cost += q.Cost
	}
	var tmpls []*tmpl
	for _, tm := range byID {
		tmpls = append(tmpls, tm)
	}
	sort.Slice(tmpls, func(i, j int) bool {
		if tmpls[i].cost != tmpls[j].cost {
			return tmpls[i].cost > tmpls[j].cost
		}
		return tmpls[i].id < tmpls[j].id // total order: tmpls was collected in map order
	})
	fmt.Println("top templates by total cost:")
	for i, tm := range tmpls {
		if i >= *top {
			break
		}
		fmt.Printf("  %3d instances  cost %12.0f  %.70s\n", tm.count, tm.cost, tm.id)
	}

	// Per-query benefit diagnostics.
	copts := core.DefaultOptions()
	copts.Telemetry = reg
	states, err := core.BuildStatesContext(ctx, w, copts)
	if err != nil {
		if !faults.IsCancellation(err) {
			fatal(err)
		}
		logger.Warn("deadline reached; stopping after the template overview")
		if err := trun.Close(); err != nil {
			fatal(err)
		}
		os.Exit(faults.ExitPartial)
	}
	ss := core.BuildSummary(states)
	type qd struct {
		idx              int
		utility, benefit float64
	}
	var qds []qd
	for i, s := range states {
		qds = append(qds, qd{idx: i, utility: s.Utility, benefit: core.BenefitSummary(s, ss)})
	}
	sort.Slice(qds, func(i, j int) bool { return qds[i].benefit > qds[j].benefit })
	fmt.Printf("\ntop queries by benefit (utility + influence on summary):\n")
	for i, d := range qds {
		if i >= *top {
			break
		}
		q := w.Queries[d.idx]
		fmt.Printf("  #%-4d benefit %.4f  utility %.4f  cost %10.0f  %.60s\n",
			d.idx, d.benefit, d.utility, q.Cost, q.Text)
		if *showFeatures {
			for _, f := range byWeight(states[d.idx].OrigVec, states[d.idx].Interner) {
				fmt.Printf("        %-30s %.3f\n", f.Key, f.W)
			}
		}
	}

	// Summary features.
	fmt.Printf("\nworkload summary features (top weights):\n")
	if len(states) > 0 {
		for i, f := range byWeight(ss.V(), states[0].Interner) {
			if i >= *top {
				break
			}
			fmt.Printf("  %-32s %.4f\n", f.Key, f.W)
		}
	}
	if err := trun.Close(); err != nil {
		fatal(err)
	}
}

// byWeight lists v's entries as (key, weight) pairs under the dictionary
// that issued its IDs, weight descending, then key.
func byWeight(v features.SparseVec, in *features.Interner) []features.Feature {
	fs := make([]features.Feature, 0, v.Len())
	v.Each(func(id uint32, w float64) { fs = append(fs, features.Feature{Key: in.Key(id), W: w}) })
	sort.Slice(fs, func(a, b int) bool {
		if fs[a].W != fs[b].W {
			return fs[a].W > fs[b].W
		}
		return fs[a].Key < fs[b].Key
	})
	return fs
}

func fatal(err error) {
	logger.Error("fatal", "err", err)
	os.Exit(faults.ExitFailed)
}
