package experiments

import (
	"fmt"

	"isum/internal/benchmarks"
)

// Fig12 reproduces Figure 12: sensitivity to workload characteristics on
// DSB — (a) varying instances per template, (b–d) varying query complexity
// class (SPJ / Aggregate / Complex).
func Fig12(env *Env) ([]*Table, error) {
	ctx := env.Cfg.Context()
	g, err := env.Generator("DSB")
	if err != nil {
		return nil, err
	}
	comps := env.standardCompressors()
	aopts, err := env.AdvisorOptions("DSB")
	if err != nil {
		return nil, err
	}
	var tables []*Table

	// (a) instances per template.
	instances := []int{1, 2, 4, 8}
	if env.Cfg.Fast {
		instances = []int{1, 2, 4}
	}
	ta := &Table{
		Title:   "Fig 12a (DSB): improvement % vs instances per template",
		Columns: append([]string{"instances"}, compNames(comps)...),
	}
	for _, inst := range instances {
		w, err := g.WorkloadPerTemplate(inst, env.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		o := env.freshOptimizer(g)
		if err := o.FillCostsCtx(ctx, w, env.Cfg.Parallelism); err != nil {
			return nil, err
		}
		k := halfSqrt(w.Len())
		row := []any{inst}
		for _, c := range comps {
			pct, err := RunPipeline(ctx, o, w, c, k, aopts)
			if err != nil {
				return nil, err
			}
			row = append(row, pct)
		}
		ta.AddRow(row...)
	}
	tables = append(tables, ta)

	// (b–d) query complexity classes.
	n := env.Cfg.WorkloadSize("DSB")
	for _, class := range []benchmarks.QueryClass{
		benchmarks.ClassSPJ, benchmarks.ClassAggregate, benchmarks.ClassComplex,
	} {
		w, err := g.WorkloadByClass(class, n, env.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		o := env.freshOptimizer(g)
		if err := o.FillCostsCtx(ctx, w, env.Cfg.Parallelism); err != nil {
			return nil, err
		}
		t := &Table{
			Title:   fmt.Sprintf("Fig 12b-d (DSB %s): improvement %% vs compressed size", class),
			Columns: append([]string{"k"}, compNames(comps)...),
		}
		for _, k := range env.Cfg.KSweep(w.Len()) {
			row := []any{k}
			for _, c := range comps {
				pct, err := RunPipeline(ctx, o, w, c, k, aopts)
				if err != nil {
					return nil, err
				}
				row = append(row, pct)
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}
