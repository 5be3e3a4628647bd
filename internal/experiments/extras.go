package experiments

import (
	"isum/internal/advisor"
	"isum/internal/core"
	"isum/internal/features"
)

// The "extra-" experiments are ablations of this implementation's design
// choices (DESIGN.md §5) beyond the paper's own figures.

// ExtraNormAblation compares feature-normalisation modes: our divide-by-max
// default, the paper-literal max−min denominator, and no normalisation.
func ExtraNormAblation(env *Env) ([]*Table, error) {
	ctx := env.Cfg.Context()
	w, o, err := env.Workload("TPC-H")
	if err != nil {
		return nil, err
	}
	aopts, err := env.AdvisorOptions("TPC-H")
	if err != nil {
		return nil, err
	}
	modes := []struct {
		name string
		m    features.NormMode
	}{
		{"divide-by-max (default)", features.NormMax},
		{"paper max-min", features.NormMinMaxPaper},
		{"none", features.NormNone},
	}
	t := &Table{
		Title:   "Extra: feature-normalisation ablation (TPC-H)",
		Columns: []string{"k", modes[0].name, modes[1].name, modes[2].name},
	}
	for _, k := range env.Cfg.KSweep(w.Len()) {
		row := []any{k}
		for _, m := range modes {
			opts := env.coreOptions(core.DefaultOptions())
			opts.Norm = m.m
			pct, err := RunPipeline(ctx, o, w, core.New(opts), k, aopts)
			if err != nil {
				return nil, err
			}
			row = append(row, pct)
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// ExtraAdvisorAblation ablates the DTA-style advisor's covering-index and
// index-merging features when tuning an ISUM-compressed workload.
func ExtraAdvisorAblation(env *Env) ([]*Table, error) {
	ctx := env.Cfg.Context()
	w, o, err := env.Workload("TPC-H")
	if err != nil {
		return nil, err
	}
	k := halfSqrt(w.Len())
	comp := core.New(env.coreOptions(core.DefaultOptions()))
	res, err := comp.CompressContext(ctx, w, k)
	if err != nil {
		return nil, err
	}
	if res.Partial {
		return nil, ctxError(ctx)
	}
	cw := w.WeightedSubset(res.Indices, res.Weights)

	variants := []struct {
		name     string
		includes bool
		merging  bool
	}{
		{"full (includes+merging)", true, true},
		{"no merging", true, false},
		{"no includes", false, true},
		{"neither", false, false},
	}
	t := &Table{
		Title:   "Extra: advisor feature ablation (TPC-H, ISUM-compressed)",
		Columns: []string{"variant", "improvement %", "indexes", "configs explored"},
	}
	for _, v := range variants {
		aopts, err := env.AdvisorOptions("TPC-H")
		if err != nil {
			return nil, err
		}
		aopts.EnableIncludes = v.includes
		aopts.EnableMerging = v.merging
		tuned, err := advisor.New(o, aopts).TuneContext(ctx, cw)
		if err != nil {
			return nil, err
		}
		if tuned.Partial {
			return nil, ctxError(ctx)
		}
		pct, _, _, err := env.evaluate(ctx, o, w, tuned.Config)
		if err != nil {
			return nil, err
		}
		t.AddRow(v.name, pct, tuned.Config.Len(), tuned.ConfigsExplored)
	}
	return []*Table{t}, nil
}

// ExtraIncremental measures the incremental compressor (Section 10) against
// one-shot compression at equal pool size.
func ExtraIncremental(env *Env) ([]*Table, error) {
	ctx := env.Cfg.Context()
	name := "TPC-DS"
	g, err := env.Generator(name)
	if err != nil {
		return nil, err
	}
	n := env.Cfg.WorkloadSize(name)
	w, err := g.Workload(n, env.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	o := env.freshOptimizer(g)
	if err := o.FillCostsCtx(ctx, w, env.Cfg.Parallelism); err != nil {
		return nil, err
	}
	aopts, err := env.AdvisorOptions(name)
	if err != nil {
		return nil, err
	}
	k := halfSqrt(n)
	batches := 5

	t := &Table{
		Title:   "Extra: incremental vs one-shot compression (TPC-DS)",
		Columns: []string{"batch", "seen", "incremental improvement %", "one-shot improvement %"},
	}
	ic := core.NewIncremental(g.Cat, env.coreOptions(core.DefaultOptions()), k)
	per := n / batches
	oneShot := core.New(env.coreOptions(core.DefaultOptions()))
	for b := 0; b < batches; b++ {
		lo, hi := b*per, (b+1)*per
		if b == batches-1 {
			hi = n
		}
		icRes, err := ic.ObserveContext(ctx, w.Queries[lo:hi])
		if err != nil {
			return nil, err
		}
		if icRes.Partial {
			return nil, ctxError(ctx)
		}
		seen := w.Subset(rangeInts(0, hi))
		incTuned, err := advisorTune(ctx, o, ic.Pool(), aopts)
		if err != nil {
			return nil, err
		}
		incPct, _, _, err := env.evaluate(ctx, o, seen, incTuned)
		if err != nil {
			return nil, err
		}
		osRes, err := oneShot.CompressContext(ctx, seen, k)
		if err != nil {
			return nil, err
		}
		if osRes.Partial {
			return nil, ctxError(ctx)
		}
		osTuned, err := advisorTune(ctx, o, seen.WeightedSubset(osRes.Indices, osRes.Weights), aopts)
		if err != nil {
			return nil, err
		}
		osPct, _, _, err := env.evaluate(ctx, o, seen, osTuned)
		if err != nil {
			return nil, err
		}
		t.AddRow(b+1, hi, incPct, osPct)
	}
	return []*Table{t}, nil
}

func rangeInts(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}
