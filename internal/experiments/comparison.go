package experiments

import (
	"fmt"
	"math"

	"isum/internal/advisor"
	"isum/internal/compress"
	"isum/internal/core"
)

// compareAt runs all compressors at one k and returns name → improvement %.
func compareAt(env *Env, name string, comps []compress.Compressor, k int, aopts advisor.Options) (map[string]float64, error) {
	w, o, err := env.Workload(name)
	if err != nil {
		return nil, err
	}
	ctx := env.Cfg.Context()
	out := map[string]float64{}
	for _, c := range comps {
		pct, err := RunPipeline(ctx, o, w, c, k, aopts)
		if err != nil {
			return nil, err
		}
		out[c.Name()] = pct
	}
	return out, nil
}

// Fig9a reproduces Figure 9a: improvement % vs compressed workload size for
// the six algorithms on all four workloads.
func Fig9a(env *Env) ([]*Table, error) {
	var tables []*Table
	for _, name := range []string{"TPC-H", "TPC-DS", "DSB", "Real-M"} {
		w, _, err := env.Workload(name)
		if err != nil {
			return nil, err
		}
		comps := env.standardCompressors()
		t := &Table{
			Title:   fmt.Sprintf("Fig 9a (%s): improvement %% vs compressed size", name),
			Columns: append([]string{"k"}, compNames(comps)...),
		}
		aopts, err := env.AdvisorOptions(name)
		if err != nil {
			return nil, err
		}
		for _, k := range env.Cfg.KSweep(w.Len()) {
			res, err := compareAt(env, name, comps, k, aopts)
			if err != nil {
				return nil, err
			}
			row := []any{k}
			for _, c := range comps {
				row = append(row, res[c.Name()])
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig9b reproduces Figure 9b: improvement % vs index-configuration size at
// a fixed compressed size of 0.5√n.
func Fig9b(env *Env) ([]*Table, error) {
	var tables []*Table
	configSizes := []int{8, 16, 32, 64}
	if env.Cfg.Fast {
		configSizes = []int{8, 16, 32}
	}
	for _, name := range []string{"TPC-H", "TPC-DS", "DSB", "Real-M"} {
		w, _, err := env.Workload(name)
		if err != nil {
			return nil, err
		}
		k := halfSqrt(w.Len())
		comps := env.standardCompressors()
		t := &Table{
			Title:   fmt.Sprintf("Fig 9b (%s): improvement %% vs configuration size (k=%d)", name, k),
			Columns: append([]string{"config size"}, compNames(comps)...),
		}
		for _, m := range configSizes {
			aopts, err := env.AdvisorOptions(name)
			if err != nil {
				return nil, err
			}
			aopts.MaxIndexes = m
			res, err := compareAt(env, name, comps, k, aopts)
			if err != nil {
				return nil, err
			}
			row := []any{m}
			for _, c := range comps {
				row = append(row, res[c.Name()])
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig10 reproduces Figure 10: improvement % vs storage budget (1.5×–3× the
// database size), including the ISUM-NoTable ablation.
func Fig10(env *Env) ([]*Table, error) {
	var tables []*Table
	budgets := []float64{1.5, 2, 2.5, 3}
	for _, name := range []string{"TPC-H", "TPC-DS", "DSB", "Real-M"} {
		w, _, err := env.Workload(name)
		if err != nil {
			return nil, err
		}
		k := halfSqrt(w.Len())
		comps := []compress.Compressor{
			&compress.Uniform{Seed: env.Cfg.Seed},
			&compress.CostTopK{},
			&compress.Stratified{Seed: env.Cfg.Seed},
			&compress.GSUM{},
			core.New(env.coreOptions(core.DefaultOptions())),
			core.New(env.coreOptions(core.NoTableOptions())),
		}
		t := &Table{
			Title:   fmt.Sprintf("Fig 10 (%s): improvement %% vs storage budget (k=%d)", name, k),
			Columns: append([]string{"budget"}, compNames(comps)...),
		}
		g, err := env.Generator(name)
		if err != nil {
			return nil, err
		}
		dbSize := g.Cat.TotalSizeBytes()
		for _, b := range budgets {
			aopts, err := env.AdvisorOptions(name)
			if err != nil {
				return nil, err
			}
			aopts.StorageBudget = int64(b * float64(dbSize))
			res, err := compareAt(env, name, comps, k, aopts)
			if err != nil {
				return nil, err
			}
			row := []any{fmt.Sprintf("%.1fx", b)}
			for _, c := range comps {
				row = append(row, res[c.Name()])
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig15 reproduces Figure 15: the algorithm comparison under the
// DEXTER-style advisor on TPC-H and TPC-DS.
func Fig15(env *Env) ([]*Table, error) {
	var tables []*Table
	for _, name := range []string{"TPC-H", "TPC-DS"} {
		w, _, err := env.Workload(name)
		if err != nil {
			return nil, err
		}
		comps := env.standardCompressors()
		t := &Table{
			Title:   fmt.Sprintf("Fig 15 (%s): improvement %% with DEXTER-style advisor", name),
			Columns: append([]string{"k"}, compNames(comps)...),
		}
		for _, k := range env.Cfg.KSweep(w.Len()) {
			res, err := compareAt(env, name, comps, k, advisor.DexterOptions())
			if err != nil {
				return nil, err
			}
			row := []any{k}
			for _, c := range comps {
				row = append(row, res[c.Name()])
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func compNames(comps []compress.Compressor) []string {
	out := make([]string, len(comps))
	for i, c := range comps {
		out[i] = c.Name()
	}
	return out
}

func halfSqrt(n int) int {
	k := int(0.5 * math.Sqrt(float64(n)))
	if k < 2 {
		k = 2
	}
	return k
}
