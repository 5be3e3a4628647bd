package experiments

import (
	"fmt"

	"isum/internal/advisor"
	"isum/internal/core"
	"isum/internal/features"
	"isum/internal/workload"
)

// perQueryStudy holds everything the correlation experiments (Figs. 5–8,
// Table 3) need about one workload: per-query single-query tuning outcomes
// and feature states under both weighting modes.
type perQueryStudy struct {
	w *workload.Workload
	// reduction[i] is C(q_i) − C_I(q_i) when q_i is tuned alone.
	reduction []float64
	// wlImprovement[i] is the improvement % on the whole workload from the
	// indexes of tuning q_i alone.
	wlImprovement []float64
	ruleStates    []*core.QueryState
	statsStates   []*core.QueryState
}

// buildPerQueryStudy tunes every query of the named workload independently
// under the given advisor options. Studies are cached per (workload, mode)
// inside the Env, since Figs. 5–8 and Table 3 share them.
func buildPerQueryStudy(env *Env, name string, aopts advisor.Options) (*perQueryStudy, error) {
	key := fmt.Sprintf("%s/mode=%d/m=%d", name, aopts.Mode, aopts.MaxIndexes)
	if s, ok := env.studies[key]; ok {
		return s, nil
	}
	s, err := computePerQueryStudy(env, name, aopts)
	if err != nil {
		return nil, err
	}
	env.studies[key] = s
	return s, nil
}

func computePerQueryStudy(env *Env, name string, aopts advisor.Options) (*perQueryStudy, error) {
	ctx := env.Cfg.Context()
	w, o, err := env.Workload(name)
	if err != nil {
		return nil, err
	}
	ruleStates, err := core.BuildStatesContext(ctx, w, env.coreOptions(core.DefaultOptions()))
	if err != nil {
		return nil, err
	}
	statsStates, err := core.BuildStatesContext(ctx, w, env.coreOptions(core.ISUMSOptions()))
	if err != nil {
		return nil, err
	}
	s := &perQueryStudy{
		w:             w,
		reduction:     make([]float64, w.Len()),
		wlImprovement: make([]float64, w.Len()),
		ruleStates:    ruleStates,
		statsStates:   statsStates,
	}
	adv := advisor.New(o, aopts)
	for i := range w.Queries {
		single := w.Subset([]int{i})
		res, err := adv.TuneContext(ctx, single)
		if err != nil {
			return nil, err
		}
		if res.Partial {
			return nil, ctxError(ctx)
		}
		s.reduction[i] = res.InitialCost - res.FinalCost
		pct, _, _, err := env.evaluate(ctx, o, w, res.Config)
		if err != nil {
			return nil, err
		}
		s.wlImprovement[i] = pct
	}
	return s, nil
}

// utilities extracts the raw per-query utility series.
func utilities(states []*core.QueryState) []float64 {
	out := make([]float64, len(states))
	for i, st := range states {
		out[i] = st.Utility
	}
	return out
}

// similarityWithWorkload returns Σ_j S(q_i, q_j) per query.
func similarityWithWorkload(states []*core.QueryState) []float64 {
	out := make([]float64, len(states))
	for i, a := range states {
		for j, b := range states {
			if i == j {
				continue
			}
			out[i] += a.Similarity(b)
		}
	}
	return out
}

// benefits returns B(q_i) = U + Σ F (Definition 4) per query.
func benefits(states []*core.QueryState) []float64 {
	out := make([]float64, len(states))
	for i, st := range states {
		out[i] = core.BenefitAllPairs(st, states)
	}
	return out
}

// benefitsWithSimilarity computes benefit using an arbitrary pairwise
// similarity function (for the Fig. 7 similarity-measure comparison).
func benefitsWithSimilarity(states []*core.QueryState, sim func(i, j int) float64) []float64 {
	out := make([]float64, len(states))
	for i, st := range states {
		b := st.Utility
		for j, other := range states {
			if i == j {
				continue
			}
			b += sim(i, j) * other.Utility
		}
		out[i] = b
	}
	return out
}

// tpchStudy builds the default TPC-H per-query study shared by Figs. 5–8.
func tpchStudy(env *Env) (*perQueryStudy, error) {
	aopts, err := env.AdvisorOptions("TPC-H")
	if err != nil {
		return nil, err
	}
	return buildPerQueryStudy(env, "TPC-H", aopts)
}

// Fig5 reproduces Figure 5: correlation between utility proxies and the
// per-query cost reduction when each query is tuned independently (TPC-H).
func Fig5(env *Env) ([]*Table, error) {
	s, err := tpchStudy(env)
	if err != nil {
		return nil, err
	}
	costs := make([]float64, s.w.Len())
	costSel := make([]float64, s.w.Len())
	for i, q := range s.w.Queries {
		costs[i] = q.Cost
		costSel[i] = (1 - q.Info.AvgFilterJoinSelectivity()) * q.Cost
	}
	t := &Table{
		Title:   "Fig 5: utility vs per-query cost reduction (TPC-H)",
		Columns: []string{"utility proxy", "pearson r"},
	}
	t.AddRow("original cost", Pearson(costs, s.reduction))
	t.AddRow("cost + selectivity", Pearson(costSel, s.reduction))
	return []*Table{t}, nil
}

// Fig6 reproduces Figure 6: correlation of utility, similarity, and benefit
// with the workload improvement from tuning each query alone (TPC-H).
func Fig6(env *Env) ([]*Table, error) {
	s, err := tpchStudy(env)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig 6: estimator vs workload improvement (TPC-H)",
		Columns: []string{"estimator", "pearson r"},
	}
	t.AddRow("utility", Pearson(utilities(s.ruleStates), s.wlImprovement))
	t.AddRow("similarity", Pearson(similarityWithWorkload(s.ruleStates), s.wlImprovement))
	t.AddRow("benefit", Pearson(benefits(s.ruleStates), s.wlImprovement))
	return []*Table{t}, nil
}

// Fig7 reproduces Figure 7: the impact of the similarity measure used
// inside benefit on its correlation with workload improvement (TPC-H).
func Fig7(env *Env) ([]*Table, error) {
	s, err := tpchStudy(env)
	if err != nil {
		return nil, err
	}
	n := s.w.Len()

	candSets := make([]map[string]bool, n)
	for i, q := range s.w.Queries {
		candSets[i] = features.CandidateIndexIDs(q.Info)
	}
	candSim := func(i, j int) float64 { return features.SetJaccard(candSets[i], candSets[j]) }
	jacSim := func(i, j int) float64 {
		return s.ruleStates[i].OrigVec.Jaccard(s.ruleStates[j].OrigVec)
	}
	ruleSim := func(i, j int) float64 {
		return s.ruleStates[i].OrigVec.WeightedJaccard(s.ruleStates[j].OrigVec)
	}
	statsSim := func(i, j int) float64 {
		return s.statsStates[i].OrigVec.WeightedJaccard(s.statsStates[j].OrigVec)
	}

	t := &Table{
		Title:   "Fig 7: similarity measure inside benefit vs workload improvement (TPC-H)",
		Columns: []string{"similarity measure", "pearson r"},
	}
	t.AddRow("candidate indexes", Pearson(benefitsWithSimilarity(s.ruleStates, candSim), s.wlImprovement))
	t.AddRow("jaccard (unweighted)", Pearson(benefitsWithSimilarity(s.ruleStates, jacSim), s.wlImprovement))
	t.AddRow("weighted jaccard (rule)", Pearson(benefitsWithSimilarity(s.ruleStates, ruleSim), s.wlImprovement))
	t.AddRow("weighted jaccard (stats)", Pearson(benefitsWithSimilarity(s.statsStates, statsSim), s.wlImprovement))
	return []*Table{t}, nil
}

// Fig8 reproduces Figure 8: (a) the F(V)/F(W) summary-feature estimation
// error on TPC-H and TPC-DS, and (b) the correlation of the
// summary-feature benefit with workload improvement on TPC-H.
func Fig8(env *Env) ([]*Table, error) {
	errT := &Table{
		Title:   "Fig 8a: summary-feature influence estimation error F(V)/F(W)",
		Columns: []string{"workload", "within 2x", "within 10x", "median ratio"},
	}
	for _, name := range []string{"TPC-H", "TPC-DS"} {
		w, _, err := env.Workload(name)
		if err != nil {
			return nil, err
		}
		states, err := core.BuildStatesContext(env.Cfg.Context(), w, env.coreOptions(core.DefaultOptions()))
		if err != nil {
			return nil, err
		}
		ss := core.BuildSummary(states)
		var ratios []float64
		within2, within10 := 0, 0
		for _, st := range states {
			fw := core.InfluenceOnWorkload(st, states)
			if fw <= 0 {
				continue
			}
			r := core.InfluenceOnSummary(st, ss) / fw
			ratios = append(ratios, r)
			if r >= 0.5 && r <= 2 {
				within2++
			}
			if r >= 0.1 && r <= 10 {
				within10++
			}
		}
		n := len(ratios)
		if n == 0 {
			n = 1
		}
		errT.AddRow(name,
			fmt.Sprintf("%.0f%%", 100*float64(within2)/float64(n)),
			fmt.Sprintf("%.0f%%", 100*float64(within10)/float64(n)),
			Median(ratios))
	}

	s, err := tpchStudy(env)
	if err != nil {
		return nil, err
	}
	ss := core.BuildSummary(s.ruleStates)
	sumBenefit := make([]float64, len(s.ruleStates))
	for i, st := range s.ruleStates {
		sumBenefit[i] = core.BenefitSummary(st, ss)
	}
	corrT := &Table{
		Title:   "Fig 8b: benefit via summary features vs workload improvement (TPC-H)",
		Columns: []string{"estimator", "pearson r"},
	}
	corrT.AddRow("benefit (summary features)", Pearson(sumBenefit, s.wlImprovement))
	corrT.AddRow("benefit (all-pairs)", Pearson(benefits(s.ruleStates), s.wlImprovement))
	return []*Table{errT, corrT}, nil
}

// Table3 reproduces Table 3: correlation of the six estimation techniques
// with the improvement reported by the DTA-style and DEXTER-style advisors
// on TPC-H and TPC-DS.
func Table3(env *Env) ([]*Table, error) {
	t := &Table{
		Title: "Table 3: estimator correlation with actual improvement",
		Columns: []string{"estimation technique",
			"TPC-H DTA", "TPC-H DEXTER", "TPC-DS DTA", "TPC-DS DEXTER"},
	}
	type cell struct{ study *perQueryStudy }
	var cells []cell
	for _, name := range []string{"TPC-H", "TPC-DS"} {
		dtaOpts, err := env.AdvisorOptions(name)
		if err != nil {
			return nil, err
		}
		dexOpts := advisor.DexterOptions()
		dtaStudy, err := buildPerQueryStudy(env, name, dtaOpts)
		if err != nil {
			return nil, err
		}
		dexStudy, err := buildPerQueryStudy(env, name, dexOpts)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell{dtaStudy}, cell{dexStudy})
	}
	rows := []struct {
		name string
		xs   func(s *perQueryStudy) []float64
	}{
		{"Utility (only cost)", func(s *perQueryStudy) []float64 {
			out := make([]float64, s.w.Len())
			for i, q := range s.w.Queries {
				out[i] = q.Cost
			}
			return out
		}},
		{"Utility (cost + selectivity)", func(s *perQueryStudy) []float64 {
			return utilities(s.statsStates)
		}},
		{"Similarity (rule-based)", func(s *perQueryStudy) []float64 {
			return similarityWithWorkload(s.ruleStates)
		}},
		{"Similarity (stats-based)", func(s *perQueryStudy) []float64 {
			return similarityWithWorkload(s.statsStates)
		}},
		{"Benefit (rule-based)", func(s *perQueryStudy) []float64 {
			return benefits(s.ruleStates)
		}},
		{"Benefit (stats-based)", func(s *perQueryStudy) []float64 {
			return benefits(s.statsStates)
		}},
	}
	for _, r := range rows {
		vals := make([]any, 0, 5)
		vals = append(vals, r.name)
		for _, c := range cells {
			vals = append(vals, Pearson(r.xs(c.study), c.study.wlImprovement))
		}
		t.AddRow(vals...)
	}
	return []*Table{t}, nil
}
