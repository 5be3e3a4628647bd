// What-if call elision (DESIGN.md §16). The optimizer memoizes per-query
// atomic costs — the empty configuration and each single-index
// configuration, keyed by interned index identity — and derives from the
// plan skeleton's access+join/tail decomposition (block.go) sound lower
// and upper bounds on the cost of any configuration:
//
//   - lower: the access+join subtotal is monotone non-increasing in the
//     configuration, so one what-if call against the union U of all
//     candidates gives LB(q, cfg) = AJ(q, U) + minTail(q) for every
//     cfg ⊆ U;
//   - upper: UB(q, cfg) = min(AJ(q, ∅), min over known member atomic AJ)
//   - maxTail(q).
//
// The advisor consults these bounds to skip what-if calls whose outcome
// is already decided (see internal/advisor), and FuzzCostBounds pins
// lower ≤ true cost ≤ upper. Bounds carry a relative slack of boundSlack
// so float re-association across the decomposition can never flip a
// comparison; memoized atomic costs are exact (the very float64 a real
// call returns), which is what makes elision bitwise-invisible.
package cost

import (
	"math"
	"strings"
	"sync"

	"isum/internal/index"
	"isum/internal/workload"
)

// boundSlack is the relative safety margin on derived (re-associated)
// bounds. Bound sums reorder at most a few thousand positive terms, so
// their relative error is orders of magnitude below 1e-9.
const boundSlack = 1e-9

// slackDown widens a lower bound downward past float noise.
func slackDown(x float64) float64 { return x - math.Abs(x)*boundSlack }

// slackUp widens an upper bound upward past float noise.
func slackUp(x float64) float64 { return x + math.Abs(x)*boundSlack }

// QueryBounds is the per-query-text elision memo: exact atomic costs
// (empty and single-index configurations), configuration-independent
// tail bounds, the union-derived lower bound, and cached structural
// floors. Handles are obtained once per query via Optimizer.QueryBounds
// and then read lock-cheap and allocation-free from the advisor's greedy
// inner loop. Safe for concurrent use.
type QueryBounds struct {
	mu      sync.Mutex
	base    planCost // exact cost/AJ under the empty configuration
	baseOK  bool
	atomics map[int32]planCost // exact cost/AJ per interned single index

	minTail, maxTail float64 // Σ per-block tail bounds (skelBlock.tailBounds)
	tailsOK          bool

	lower   float64 // slacked AJ(q, U) + minTail; valid for any cfg ⊆ U
	lowerOK bool

	floors map[string]float64 // per lower-cased table: slacked structural floor
}

// ensureTails computes the tail bounds once per query. Callers hold b.mu.
func (b *QueryBounds) ensureTails(o *Optimizer, q *workload.Query) {
	if b.tailsOK {
		return
	}
	if q.Info != nil {
		s := o.skeletonFor(q)
		for i := range s.blocks {
			lo, hi := s.blocks[i].tailBounds()
			b.minTail += lo
			b.maxTail += hi
		}
	}
	b.tailsOK = true
}

// BaseCost returns the memoized exact cost under the empty configuration.
//
//lint:hotpath elision bound lookup in the greedy inner loop
func (b *QueryBounds) BaseCost() (float64, bool) {
	b.mu.Lock()
	v, ok := b.base.c, b.baseOK
	b.mu.Unlock()
	return v, ok
}

// AtomicCost returns the memoized exact cost under the single-index
// configuration identified by the interned id — bitwise the value a real
// what-if call returns, so substituting it is invisible.
//
//lint:hotpath elision bound lookup in the greedy inner loop
func (b *QueryBounds) AtomicCost(id int32) (float64, bool) {
	b.mu.Lock()
	v, ok := b.atomics[id]
	b.mu.Unlock()
	return v.c, ok
}

// Lower returns the lower bound on this query's cost under any
// configuration that is a subset of the union primed by PrimeUnionBound.
//
//lint:hotpath elision bound lookup in the greedy inner loop
func (b *QueryBounds) Lower() (float64, bool) {
	b.mu.Lock()
	v, ok := b.lower, b.lowerOK
	b.mu.Unlock()
	return v, ok
}

// UpperWith returns an upper bound on this query's cost under any
// configuration containing the index identified by id: the cheaper of the
// base and the member's atomic access+join subtotal, plus the worst-case
// tail.
//
//lint:hotpath elision bound lookup in the greedy inner loop
func (b *QueryBounds) UpperWith(id int32) (float64, bool) {
	b.mu.Lock()
	if !b.baseOK || !b.tailsOK {
		b.mu.Unlock()
		return 0, false
	}
	aj := b.base.aj
	if v, ok := b.atomics[id]; ok && v.aj < aj {
		aj = v.aj
	}
	u := aj + b.maxTail
	b.mu.Unlock()
	return u + math.Abs(u)*boundSlack, true
}

// QueryBounds returns the elision memo handle for q, creating it if
// needed. Handles are shared across queries with identical text (cost is
// a pure function of the text and the relevant configuration): each lives
// in its text's compiled plan.
func (o *Optimizer) QueryBounds(q *workload.Query) *QueryBounds {
	return &o.planFor(q.Text).bounds
}

// InternIndexID maps a canonical index identity (index.Index.ID) to a
// small stable integer, so the hot bound lookups key on an int32 instead
// of a string. IDs are private to this optimizer.
func (o *Optimizer) InternIndexID(id string) int32 {
	o.elideMu.Lock()
	n, ok := o.elideIDs[id]
	if !ok {
		n = int32(len(o.elideIDs))
		o.elideIDs[id] = n
	}
	o.elideMu.Unlock()
	return n
}

// recordParts feeds the atomic-cost memo from what-if calls: the empty
// configuration and configurations with exactly one index relevant to the
// query (rel holds the relevant members).
func (o *Optimizer) recordParts(b *QueryBounds, rel []*index.Member, v planCost) {
	if len(rel) > 1 {
		return
	}
	id := int32(-1)
	if len(rel) == 1 {
		id = o.InternIndexID(rel[0].ID)
	}
	b.mu.Lock()
	if id < 0 {
		b.base, b.baseOK = v, true
	} else {
		if b.atomics == nil {
			b.atomics = make(map[int32]planCost)
		}
		b.atomics[id] = v
	}
	b.mu.Unlock()
}

// PrimeUnionBound issues one real what-if call for q against the union of
// every candidate index and derives the query's lower bound, valid for
// all configurations the enumeration can probe (subsets of the union).
// Counted as a normal what-if call.
func (o *Optimizer) PrimeUnionBound(q *workload.Query, union *index.Configuration) {
	v := o.costParts(q, union)
	b := o.QueryBounds(q)
	b.mu.Lock()
	b.ensureTails(o, q)
	lb := slackDown(v.aj + b.minTail)
	if lb < 0 {
		lb = 0
	}
	b.lower, b.lowerOK = lb, true
	b.mu.Unlock()
}

// FloorCost returns a structural lower bound on q's cost under any
// configuration whose indexes all live on the named table — the
// "perfect index" floor used to prune candidates during selection
// without a what-if call. Cached per (query text, table); never a
// what-if call itself.
func (o *Optimizer) FloorCost(q *workload.Query, table string) float64 {
	if q.Info == nil {
		return 0
	}
	t := strings.ToLower(table)
	b := o.QueryBounds(q)
	b.mu.Lock()
	defer b.mu.Unlock()
	if f, ok := b.floors[t]; ok {
		return f
	}
	b.ensureTails(o, q)
	s := o.skeletonFor(q)
	var aj float64
	for i := range s.blocks {
		aj += s.floorAJ(o.par, &s.blocks[i], t)
	}
	f := slackDown(aj + b.minTail)
	if f < 0 {
		f = 0
	}
	if b.floors == nil {
		b.floors = make(map[string]float64)
	}
	b.floors[t] = f
	return f
}

// IndexRelevant reports whether the planner can consult ix anywhere in
// q's plan. The planner reads an index at exactly two decision points,
// both compiled into its access atom (block.go), both gated on
// structural, configuration-independent conditions: accessPath offers a
// path only when the index's leading key is seekable (the table's most
// selective predicate on that column is an equality, range, or LIKE
// prefix) or the index covers the block's needed columns, and the
// index-nested-loop cost exists only when its leading key is a join
// column of the table. When none of those holds for any block, the atom
// is empty and the fold skips it, so
// cost(q, cfg ∪ {ix}) == cost(q, cfg) bitwise for every configuration
// cfg — the advisor elides such probes wholesale
// (TestIndexIrrelevanceExact pins the equality).
func IndexRelevant(q *workload.Query, ix index.Index) bool {
	if q.Info == nil || len(ix.Keys) == 0 {
		return false
	}
	table := strings.ToLower(ix.Table)
	lead := strings.ToLower(ix.Keys[0])
	for _, blk := range q.Info.Blocks {
		uses := false
		for _, tu := range blk.Tables {
			if tu.Table == table {
				uses = true
				break
			}
		}
		if !uses {
			continue
		}
		// Index-nested-loop lookups need the leading key on one of the
		// table's join columns.
		for _, j := range blk.Joins {
			if (j.Left.Table == table && strings.ToLower(j.Left.Column) == lead) ||
				(j.Right.Table == table && strings.ToLower(j.Right.Column) == lead) {
				return true
			}
		}
		// Seek: the most selective predicate on the leading key decides
		// seekability, first one winning ties exactly as the planner's
		// bestFilter does.
		var best *workload.FilterPredicate
		for i := range blk.Filters {
			f := &blk.Filters[i]
			if f.Table != table || !strings.EqualFold(f.Column, ix.Keys[0]) {
				continue
			}
			if best == nil || f.Selectivity < best.Selectivity {
				best = f
			}
		}
		if best != nil && (best.SargableEq || best.Kind == workload.PredRange || best.Kind == workload.PredLike) {
			return true
		}
		// Covering scan.
		if !blk.SelectStar {
			cols, _ := blockNeededColumns(blk, table)
			if ix.Covers(cols) {
				return true
			}
		}
	}
	return false
}

// CountElidedCalls records n what-if calls answered from memoized values
// or bounds instead of being issued (cost/elide/hits).
func (o *Optimizer) CountElidedCalls(n int64) { o.elideHits.Add(n) }

// CountBoundPrune records one candidate pruned wholesale by a bound
// comparison (cost/elide/bound_prunes).
func (o *Optimizer) CountBoundPrune() { o.elidePrunes.Inc() }

// ElideStats reports the elision counters: what-if calls elided and
// candidates pruned by bounds. The third result is always 0: identical
// concurrent calls each compute their plan, none waits on another. It
// stays for the end-to-end benchmark's trace, which still reads it;
// ROADMAP item 1's benchmark change removes it.
func (o *Optimizer) ElideStats() (hits, boundPrunes, singleflightWaits int64) {
	return o.elideHits.Value(), o.elidePrunes.Value(), 0
}
