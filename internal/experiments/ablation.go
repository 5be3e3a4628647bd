package experiments

import (
	"fmt"

	"isum/internal/core"
)

// Fig13 reproduces Figure 13: the impact of the update strategies of
// Section 4.3 on improvement, using the all-pairs greedy on TPC-H and
// TPC-DS.
func Fig13(env *Env) ([]*Table, error) {
	ctx := env.Cfg.Context()
	strategies := []struct {
		name string
		s    core.UpdateStrategy
	}{
		{"No Update", core.UpdateNone},
		{"Utility Update", core.UpdateUtilityOnly},
		{"Utility + Weight Subtract", core.UpdateWeightSubtract},
		{"Utility + Feature Remove", core.UpdateFeatureRemove},
	}
	ks := []int{1, 2, 4, 8}
	// The all-pairs greedy is O(k·n²); cap the study size the way the paper
	// itself caps its all-pairs experiments (Fig. 11 stops near 2000
	// queries). The strategy comparison, not scale, is the point here.
	const maxAllPairsN = 1100
	var tables []*Table
	for _, name := range []string{"TPC-H", "TPC-DS"} {
		w, o, err := env.Workload(name)
		if err != nil {
			return nil, err
		}
		if w.Len() > maxAllPairsN {
			ids := make([]int, maxAllPairsN)
			for i := range ids {
				ids[i] = i * w.Len() / maxAllPairsN // stratified slice
			}
			w = w.Subset(ids)
		}
		aopts, err := env.AdvisorOptions(name)
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title:   fmt.Sprintf("Fig 13 (%s): improvement %% by update strategy (all-pairs greedy)", name),
			Columns: []string{"k", strategies[0].name, strategies[1].name, strategies[2].name, strategies[3].name},
		}
		for _, k := range ks {
			row := []any{k}
			for _, st := range strategies {
				opts := env.coreOptions(core.DefaultOptions())
				opts.Algorithm = core.AllPairs
				opts.Update = st.s
				pct, err := RunPipeline(ctx, o, w, core.New(opts), k, aopts)
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

// Fig14 reproduces Figure 14: the impact of the weighing strategies of
// Section 7 on improvement (TPC-H).
func Fig14(env *Env) ([]*Table, error) {
	ctx := env.Cfg.Context()
	strategies := []struct {
		name string
		s    core.WeighStrategy
	}{
		{"No Weighing", core.WeighNone},
		{"Benefit (Selection)", core.WeighSelectionBenefit},
		{"Recalib. Benefit", core.WeighRecalibrated},
		{"Recalib. w/ Template Weighing", core.WeighTemplateRecalibrated},
	}
	w, o, err := env.Workload("TPC-H")
	if err != nil {
		return nil, err
	}
	aopts, err := env.AdvisorOptions("TPC-H")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig 14 (TPC-H): improvement % by weighing strategy",
		Columns: []string{"k", strategies[0].name, strategies[1].name, strategies[2].name, strategies[3].name},
	}
	for _, k := range env.Cfg.KSweep(w.Len()) {
		row := []any{k}
		for _, st := range strategies {
			opts := env.coreOptions(core.DefaultOptions())
			opts.Weighing = st.s
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
