package experiments

import (
	"fmt"

	"isum/internal/compress"
	"isum/internal/core"
)

// Fig11 reproduces Figure 11: improvement (a, b) and compression time
// (c, d) of the summary-features algorithm vs the all-pairs greedy and
// k-medoid [11] as the input workload grows, on TPC-H and Real-M.
func Fig11(env *Env) ([]*Table, error) {
	ctx := env.Cfg.Context()
	sizes := []int{64, 256, 512, 1024, 2048}
	if env.Cfg.Fast {
		sizes = []int{32, 64, 128}
	}
	apOpts := env.coreOptions(core.DefaultOptions())
	apOpts.Algorithm = core.AllPairs
	algos := []compress.Compressor{
		core.New(apOpts),
		&compress.KMedoid{Seed: env.Cfg.Seed},
		core.New(env.coreOptions(core.DefaultOptions())),
	}

	var tables []*Table
	for _, name := range []string{"TPC-H", "Real-M"} {
		g, err := env.Generator(name)
		if err != nil {
			return nil, err
		}
		imp := &Table{
			Title:   fmt.Sprintf("Fig 11a/b (%s): improvement %% vs input size", name),
			Columns: append([]string{"n"}, compNames(algos)...),
		}
		tm := &Table{
			Title:   fmt.Sprintf("Fig 11c/d (%s): compression time (ms) vs input size", name),
			Columns: append([]string{"n"}, compNames(algos)...),
		}
		for _, n := range sizes {
			w, err := g.Workload(n, env.Cfg.Seed)
			if err != nil {
				return nil, err
			}
			o := env.freshOptimizer(g)
			if err := o.FillCostsCtx(ctx, w, env.Cfg.Parallelism); err != nil {
				return nil, err
			}
			k := halfSqrt(n)
			aopts, err := env.AdvisorOptions(name)
			if err != nil {
				return nil, err
			}
			impRow := []any{n}
			tmRow := []any{n}
			for _, algo := range algos {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				res, err := algo.CompressContext(ctx, w, k)
				if err != nil {
					return nil, err
				}
				if res.Partial {
					return nil, ctxError(ctx)
				}
				tmRow = append(tmRow, float64(res.Elapsed.Microseconds())/1000)
				cw := w.WeightedSubset(res.Indices, res.Weights)
				tuned, err := advisorTune(ctx, o, cw, aopts)
				if err != nil {
					return nil, err
				}
				pct, _, _, err := env.evaluate(ctx, o, w, tuned)
				if err != nil {
					return nil, err
				}
				impRow = append(impRow, pct)
			}
			imp.AddRow(impRow...)
			tm.AddRow(tmRow...)
		}
		tables = append(tables, imp, tm)
	}
	return tables, nil
}
