package experiments

import (
	"fmt"
	"time"

	"isum/internal/advisor"
	"isum/internal/core"
)

// Fig2 reproduces Figure 2: index-tuning time (2a) and configurations
// explored (2b) as the TPC-DS workload grows — the scalability motivation
// for workload compression. The tuning runs serially, so the optimizer
// time share is one worker's what-if busy time over wall time, at most
// 100%; summed over parallel workers it could exceed the wall time.
func Fig2(env *Env) ([]*Table, error) {
	ctx := env.Cfg.Context()
	sizes := []int{1, 20, 40, 60, 80, 92}
	if env.Cfg.Fast {
		sizes = []int{1, 8, 16, 24}
	}
	g, err := env.Generator("TPC-DS")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Fig 2: tuning scalability vs workload size (TPC-DS, serial tuning)",
		Columns: []string{"queries", "tuning time (s)", "optimizer time %",
			"optimizer calls", "configs explored", "indexes"},
	}
	for _, n := range sizes {
		// Fresh workload and optimizer per point so compiled plans and the
		// elision memo don't flatter the larger runs.
		w, err := g.Workload(n, env.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		o := env.freshOptimizer(g)
		if err := o.FillCostsCtx(ctx, w, env.Cfg.Parallelism); err != nil {
			return nil, err
		}
		o.ResetCounters()
		aopts, err := env.AdvisorOptions("TPC-DS")
		if err != nil {
			return nil, err
		}
		aopts.Parallelism = 1
		res, err := advisor.New(o, aopts).TuneContext(ctx, w)
		if err != nil {
			return nil, err
		}
		if res.Partial {
			return nil, ctxError(ctx)
		}
		share := 0.0
		if res.Elapsed > 0 {
			share = float64(o.CostTime()) / float64(res.Elapsed) * 100
		}
		t.AddRow(n, res.Elapsed.Seconds(), share, res.OptimizerCalls, res.ConfigsExplored, res.Config.Len())
	}
	return []*Table{t}, nil
}

// Fig3 reproduces Figure 3: improvement of the compressed workload vs the
// full workload on 92 distinct TPC-DS queries, including the end-to-end
// (compression + tuning) time.
func Fig3(env *Env) ([]*Table, error) {
	ctx := env.Cfg.Context()
	g, err := env.Generator("TPC-DS")
	if err != nil {
		return nil, err
	}
	n := 92
	if env.Cfg.Fast {
		n = 46
	}
	w, err := g.Workload(n, env.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	o := env.freshOptimizer(g)
	if err := o.FillCostsCtx(ctx, w, env.Cfg.Parallelism); err != nil {
		return nil, err
	}
	aopts, err := env.AdvisorOptions("TPC-DS")
	if err != nil {
		return nil, err
	}

	fullStart := time.Now() //lint:allow determinism Fig. 11 wall-clock column; figure values come from costs, not the clock
	fullCfg, err := advisorTune(ctx, o, w, aopts)
	if err != nil {
		return nil, err
	}
	fullTime := time.Since(fullStart)
	fullPct, _, _, err := env.evaluate(ctx, o, w, fullCfg)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   fmt.Sprintf("Fig 3: compressed vs full workload tuning (TPC-DS, n=%d)", n),
		Columns: []string{"compressed size", "improvement %", "full-workload improvement %", "total time (s)"},
	}
	ks := []int{1, 2, 4, 8, 16, 20, 24}
	if env.Cfg.Fast {
		ks = []int{1, 4, 8, 16}
	}
	comp := core.New(env.coreOptions(core.DefaultOptions()))
	for _, k := range ks {
		start := time.Now() //lint:allow determinism Fig. 11 wall-clock column; figure values come from costs, not the clock
		res, err := comp.CompressContext(ctx, w, k)
		if err != nil {
			return nil, err
		}
		if res.Partial {
			return nil, ctxError(ctx)
		}
		cw := w.WeightedSubset(res.Indices, res.Weights)
		cfg, err := advisorTune(ctx, o, cw, aopts)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		pct, _, _, err := env.evaluate(ctx, o, w, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(k, pct, fullPct, elapsed.Seconds())
	}
	t.AddRow("full", fullPct, fullPct, fullTime.Seconds())
	return []*Table{t}, nil
}
