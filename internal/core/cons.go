package core

import (
	"context"

	"isum/internal/workload"
)

// BuildConsedStatesContext is the template hash-consing state builder
// (DESIGN.md §12): instead of one state per query it builds one state per
// distinct template, so all instances of a template share one feature
// extraction and one SparseVec. The returned repIdx maps each template
// state's position to its representative query's workload position (the
// template's first instance).
//
// Instances of one template differ only in literal bindings, so their
// feature vectors are identical up to selectivity estimates of the bound
// literals; the representative's extraction stands in for the group. The
// group state's utility is the *sum* of its instances' normalised
// utilities U(q) = Δ(q)/ΣΔ — Algorithm 4's template-based utility pooling
// applied before selection instead of after — so a template selected by
// the greedy loop carries the combined weight of every query it
// represents. Both builders share one implementation (buildStates): ΣΔ
// still ranges over all queries and is reduced serially in query-index
// order, making utilities bit-identical at any parallelism, and invalid
// costs are the same error.
//
// On a workload with no repeated templates this is BuildStatesContext
// with extra bookkeeping; on template-heavy million-query workloads it
// collapses the greedy universe by orders of magnitude.
func BuildConsedStatesContext(ctx context.Context, w *workload.Workload, opts Options) ([]*QueryState, []int, error) {
	const phase = "core/build-consed-states"
	sp := opts.Telemetry.Start(phase)
	defer sp.End()
	groups := w.TemplateGroups()
	sp.SetAttr("queries", w.Len())
	sp.SetAttr("templates", len(groups))
	repIdx := make([]int, len(groups))
	for g, grp := range groups {
		repIdx[g] = grp.Indices[0]
	}
	states, err := buildStates(ctx, w, opts, phase, repIdx, func(g int) []int { return groups[g].Indices })
	sp.SetAttr("features", featureSpace(states))
	if err != nil {
		return nil, nil, err
	}
	workload.RecordConsed(len(groups), w.Len()-len(groups))
	return states, repIdx, nil
}
