package advisor

// The reference advisor: Tune as it ran before what-if elision became the
// only tuning path (DESIGN.md §16). Every candidate-selection probe and
// every enumeration probe is a real what-if call; no memo, bound or
// structural-relevance test answers one, and no union bound is primed. It
// is the oracle TestElisionDoesNotChangeOutput holds the production
// advisor to, bit for bit. It runs serially, on a background context and
// without fault injection, and leaves out telemetry, which never changes
// a recommendation.

import (
	"sort"

	"isum/internal/cost"
	"isum/internal/index"
	"isum/internal/workload"
)

// referenceTune tunes w with the reference advisor.
func referenceTune(o *cost.Optimizer, opts Options, w *workload.Workload) *Result {
	a := New(o, opts)
	callsBefore := o.Calls()
	res := &Result{InitialCost: o.WorkloadCostN(w, nil, 1)}
	cands := a.referenceSelect(w, res)
	if a.opts.EnableMerging {
		cands = a.addMerged(cands)
	}
	res.Config = a.referenceEnumerate(w, cands, res)
	res.FinalCost = o.WorkloadCostN(w, res.Config, 1)
	res.OptimizerCalls = o.Calls() - callsBefore
	return res
}

// referenceWeight is q's weight in the tuning objective; ≤ 0 counts as 1.
func referenceWeight(q *workload.Query) float64 {
	if q.Weight <= 0 {
		return 1
	}
	return q.Weight
}

// byBenefit orders scored candidates by benefit, then by index ID.
func byBenefit(s []scored) func(i, j int) bool {
	return func(i, j int) bool {
		if s[i].benefit != s[j].benefit {
			return s[i].benefit > s[j].benefit
		}
		return s[i].ix.ID() < s[j].ix.ID()
	}
}

// referenceSelect is candidate selection: each query's syntactic
// candidates costed alone, its best CandidatesPerQuery winners above the
// improvement threshold pooled by summing their weighted gains.
func (a *Advisor) referenceSelect(w *workload.Workload, res *Result) []scored {
	pool := map[string]*scored{}
	for _, q := range w.Queries {
		base := a.o.Cost(q, nil)
		if base <= 0 {
			continue
		}
		var local []scored
		for _, ix := range a.syntacticCandidatesForMode(q) {
			c := a.o.Cost(q, index.NewConfiguration(ix))
			res.ConfigsExplored++
			gain := base - c
			if gain <= 0 || gain < a.opts.MinImprovement*base {
				continue
			}
			local = append(local, scored{ix: ix, benefit: referenceWeight(q) * gain})
		}
		sort.Slice(local, byBenefit(local))
		if len(local) > a.opts.CandidatesPerQuery {
			local = local[:a.opts.CandidatesPerQuery]
		}
		for _, s := range local {
			if cur, ok := pool[s.ix.ID()]; ok {
				cur.benefit += s.benefit
			} else {
				sc := s
				pool[s.ix.ID()] = &sc
			}
		}
	}
	out := make([]scored, 0, len(pool))
	for _, s := range pool {
		out = append(out, *s)
	}
	sort.Slice(out, byBenefit(out))
	return out
}

// referenceEnumerate is the greedy enumeration: each round costs every
// query on each candidate's table with the candidate added, and adds the
// first candidate whose weighted gain beats every earlier one by more
// than 1e-9, until the index count or storage budget binds or nothing
// gains.
func (a *Advisor) referenceEnumerate(w *workload.Workload, cands []scored, res *Result) *index.Configuration {
	cfg := index.NewConfiguration()
	var used int64
	remaining := append([]scored{}, cands...)
	curCost := make([]float64, len(w.Queries))
	byTable := map[string][]int{}
	for i, q := range w.Queries {
		curCost[i] = referenceWeight(q) * a.o.Cost(q, cfg)
		if q.Info != nil {
			for _, t := range q.Info.Tables {
				byTable[t] = append(byTable[t], i)
			}
		}
	}
	for a.opts.MaxIndexes <= 0 || cfg.Len() < a.opts.MaxIndexes {
		best, bestGain := -1, 0.0
		var bestCosts map[int]float64
		for i, cand := range remaining {
			size := cand.ix.SizeBytes(a.o.Catalog())
			if a.opts.StorageBudget > 0 && used+size > a.opts.StorageBudget {
				continue
			}
			res.ConfigsExplored++
			trial := cfg.Probe(index.NewMember(cand.ix))
			gain, newCosts := 0.0, map[int]float64{}
			for _, qi := range byTable[lower(cand.ix.Table)] {
				c := referenceWeight(w.Queries[qi]) * a.o.Cost(w.Queries[qi], trial)
				if c < curCost[qi] {
					gain += curCost[qi] - c
					newCosts[qi] = c
				}
			}
			if gain > bestGain+1e-9 {
				best, bestGain, bestCosts = i, gain, newCosts
			}
		}
		if best < 0 {
			break
		}
		cfg.Add(remaining[best].ix)
		used += remaining[best].ix.SizeBytes(a.o.Catalog())
		for qi, c := range bestCosts {
			curCost[qi] = c
		}
		remaining = append(remaining[:best], remaining[best+1:]...)
		res.Rounds++
	}
	return cfg
}
