package cost

// The reference what-if planner: it plans a block from scratch against a
// configuration, re-deriving everything the compiled plan (block.go,
// DESIGN.md §17) keeps in its skeleton and atoms. It is the oracle
// TestCompiledPlanMatchesReference and FuzzCompiledPlan hold the kernel
// to, bit for bit. Two edits separate it from the planner that used to
// run in production: exact access-cost ties between indexes go to the
// lowest canonical index ID instead of the first index in insertion
// order, and the terms the kernel precomputes are rounded explicitly with
// float64(), which changes nothing on platforms that do not fuse
// multiply-adds.

import (
	"math"
	"sort"
	"strings"

	"isum/internal/catalog"
	"isum/internal/index"
	"isum/internal/workload"
)

// accessPlan is the chosen single-table access path.
type accessPlan struct {
	table    *catalog.Table
	use      workload.TableUse
	cost     float64
	outRows  float64 // rows after local filters
	idx      *index.Index
	seekSel  float64  // fraction of the table reached via the seek
	covering bool     // no base-table lookup needed
	order    []string // column order the access path delivers (lower-cased)
}

// blockPlanner plans one SELECT block against a configuration.
type blockPlanner struct {
	cat *catalog.Catalog
	cfg *index.Configuration
	blk *workload.Block
	par Params

	// floorTable, when non-empty (lower-cased), switches the planner into
	// the structural-floor mode used by the elision layer (elide.go): the
	// named table's access and index-nested-loop costs are replaced by
	// lower bounds that hold for *any* hypothetical index on it, so the
	// block total lower-bounds the cost under every configuration whose
	// indexes all live on that table. Empty (the default) leaves the
	// reference planner untouched.
	floorTable string

	// filtersByTable groups the block's filter predicates per base table,
	// keeping the most selective predicate per column for seek matching.
	filtersByTable map[string][]workload.FilterPredicate
}

// planBlockParts plans one block, reporting its cost and the access+join
// subtotal ("aj") accumulated before the aggregation/sort tail. The total
// is computed by exactly the same operations in the same order as the
// original single-value planner, so callers that only use total are
// bitwise-unchanged; aj is read mid-accumulation, not re-summed. The
// elision layer builds configuration cost bounds from aj because it is
// monotone non-increasing in the configuration (more indexes can only
// cheapen access paths and join steps; the join order itself depends only
// on configuration-independent cardinalities), while the tail is not.
func planBlockParts(cat *catalog.Catalog, cfg *index.Configuration, blk *workload.Block, par Params) (float64, float64) {
	p := &blockPlanner{cat: cat, cfg: cfg, blk: blk, par: par}
	p.groupFilters()

	// Deduplicate table occurrences by name (self-joins cost the same access
	// path once per occurrence).
	var plans []*accessPlan
	for _, tu := range blk.Tables {
		t := cat.Table(tu.Table)
		if t == nil {
			continue
		}
		plans = append(plans, p.bestAccess(tu, t))
	}
	if len(plans) == 0 {
		return p.par.CPUTuple, p.par.CPUTuple // constant block, e.g. SELECT 1
	}

	total, rows, singleOrder := p.planJoins(plans)
	aj := total

	// Aggregation.
	groups := rows
	if len(blk.GroupBy) > 0 {
		groups = p.estimateGroups(rows)
		if len(plans) == 1 && orderCovers(singleOrder, blk.GroupBy) {
			total += float64(p.par.streamAggCost(rows))
		} else {
			total += float64(p.par.hashAggCost(rows, groups))
		}
		rows = groups
	} else if blk.HasAgg {
		total += float64(rows * p.par.CPUOperator)
		rows = 1
	}
	if blk.Distinct && len(blk.GroupBy) == 0 {
		total += float64(p.par.hashAggCost(rows, rows))
	}

	// Ordering.
	if len(blk.OrderBy) > 0 {
		avoided := len(plans) == 1 && len(blk.GroupBy) == 0 && orderCovers(singleOrder, blk.OrderBy)
		if !avoided {
			total += float64(p.par.sortCost(rows, p.outputWidth()))
		}
	}
	return total, aj
}

// blockTailBounds bounds the aggregation/sort tail of a block across all
// possible configurations. The tail's term magnitudes are configuration-
// independent (join output rows and group estimates depend only on base
// statistics); only binary choices — stream vs hash aggregation, sort
// avoided vs paid — depend on the delivered order, so the bounds take the
// min/max over the reachable choices. Used by the elision layer; see
// DESIGN.md §16.
func refBlockTailBounds(cat *catalog.Catalog, blk *workload.Block, par Params) (minTail, maxTail float64) {
	p := &blockPlanner{cat: cat, cfg: nil, blk: blk, par: par}
	p.groupFilters()
	var plans []*accessPlan
	for _, tu := range blk.Tables {
		t := cat.Table(tu.Table)
		if t == nil {
			continue
		}
		plans = append(plans, p.bestAccess(tu, t))
	}
	if len(plans) == 0 {
		return 0, 0
	}
	_, rows, _ := p.planJoins(plans)
	single := len(plans) == 1

	if len(blk.GroupBy) > 0 {
		groups := p.estimateGroups(rows)
		hash := par.hashAggCost(rows, groups)
		if single {
			// A covering order can enable stream aggregation.
			stream := par.streamAggCost(rows)
			minTail += math.Min(stream, hash)
			maxTail += math.Max(stream, hash)
		} else {
			minTail += hash
			maxTail += hash
		}
		rows = groups
	} else if blk.HasAgg {
		c := rows * par.CPUOperator
		minTail += c
		maxTail += c
		rows = 1
	}
	if blk.Distinct && len(blk.GroupBy) == 0 {
		c := par.hashAggCost(rows, rows)
		minTail += c
		maxTail += c
	}
	if len(blk.OrderBy) > 0 {
		s := par.sortCost(rows, p.outputWidth())
		if !(single && len(blk.GroupBy) == 0) {
			// Sort can never be avoided: multi-table plans deliver no
			// order, and a group-by consumes the single-table order.
			minTail += s
		}
		maxTail += s
	}
	return minTail, maxTail
}

// floorBlockAJ is the structural access+join floor for a block: the
// access+join subtotal under the empty configuration, except that the
// named table's access and inner-join costs are replaced by bounds valid
// for ANY index on it. The result lower-bounds the block's access+join
// subtotal under every configuration whose indexes are all on that table
// (other tables keep their empty-configuration plans, which such
// configurations cannot change).
func refFloorBlockAJ(cat *catalog.Catalog, blk *workload.Block, par Params, floorTable string) float64 {
	p := &blockPlanner{cat: cat, cfg: nil, blk: blk, par: par, floorTable: floorTable}
	p.groupFilters()
	var plans []*accessPlan
	for _, tu := range blk.Tables {
		t := cat.Table(tu.Table)
		if t == nil {
			continue
		}
		plans = append(plans, p.bestAccess(tu, t))
	}
	if len(plans) == 0 {
		return p.par.CPUTuple
	}
	aj, _, _ := p.planJoins(plans)
	return aj
}

func (p *blockPlanner) groupFilters() {
	p.filtersByTable = make(map[string][]workload.FilterPredicate)
	for _, f := range p.blk.Filters {
		p.filtersByTable[f.Table] = append(p.filtersByTable[f.Table], f)
	}
}

// localSelectivity is the combined selectivity of a table's filters.
func localSelectivity(filters []workload.FilterPredicate) float64 {
	s := 1.0
	for _, f := range filters {
		s *= f.Selectivity
	}
	if s < 1e-9 {
		s = 1e-9
	}
	return s
}

// neededColumns returns the (lower-cased) columns of table needed anywhere in
// the block, and whether the block needs every column (SELECT *).
func (p *blockPlanner) neededColumns(table string) ([]string, bool) {
	return blockNeededColumns(p.blk, table)
}

// bestAccess picks the cheapest access path for one table occurrence.
func (p *blockPlanner) bestAccess(tu workload.TableUse, t *catalog.Table) *accessPlan {
	filters := p.filtersByTable[tu.Table]
	localSel := localSelectivity(filters)
	outRows := rowsAfter(float64(t.RowCount), localSel)

	if p.floorTable != "" && p.floorTable == strings.ToLower(tu.Table) {
		// Structural floor: cheaper than any reachable access path. A seek
		// costs at least leaf·seekSel·SeqPage + matchedRows·CPUTuple with
		// leaf ≥ 1, seekSel ≥ localSel and matchedRows ≥ outRows; a
		// covering scan at least SeqPage + RowCount·CPUTuple; a heap scan
		// exactly scanCost.
		c := localSel*p.par.SeqPage + outRows*p.par.CPUTuple
		if sc := p.par.scanCost(t); sc < c {
			c = sc
		}
		return &accessPlan{table: t, use: tu, cost: c, outRows: outRows}
	}

	best := &accessPlan{
		table:   t,
		use:     tu,
		cost:    p.par.scanCost(t),
		outRows: outRows,
	}
	needCols, needAll := p.neededColumns(tu.Table)

	// Most selective predicate per column, for seek matching.
	bestPred := map[string]workload.FilterPredicate{}
	for _, f := range filters {
		c := strings.ToLower(f.Column)
		if cur, ok := bestPred[c]; !ok || f.Selectivity < cur.Selectivity {
			bestPred[c] = f
		}
	}

	for _, m := range p.cfg.ForTable(tu.Table) {
		ix := m.Index
		covering := !needAll && ix.Covers(needCols)
		leaf := leafPages(t, ix)

		// Match a seekable key prefix.
		seekSel := 1.0
		matched := 0
		for _, key := range ix.Keys {
			f, ok := bestPred[strings.ToLower(key)]
			if !ok {
				break
			}
			if f.SargableEq {
				seekSel *= f.Selectivity
				matched++
				continue
			}
			if f.Kind == workload.PredRange || f.Kind == workload.PredLike {
				seekSel *= f.Selectivity
				matched++
			}
			break // range terminates the seekable prefix
		}

		var c float64
		switch {
		case matched > 0:
			matchedRows := rowsAfter(float64(t.RowCount), seekSel)
			c = p.par.Seek + leaf*seekSel*p.par.SeqPage + matchedRows*p.par.CPUTuple
			if !covering {
				c += matchedRows * p.par.RandPage
			}
		case covering:
			// Covering scan of the (narrower) index.
			c = leaf*p.par.SeqPage + float64(t.RowCount)*p.par.CPUTuple
		default:
			continue // index is useless for this block
		}
		// Exact ties go to the lowest canonical index ID (a scan keeps any
		// tie it holds), so the choice is independent of insertion order.
		if c < best.cost || (c == best.cost && best.idx != nil && m.ID < best.idx.ID()) {
			keys := make([]string, len(ix.Keys))
			for i, k := range ix.Keys {
				keys[i] = strings.ToLower(k)
			}
			best = &accessPlan{
				table: t, use: tu, cost: c, outRows: outRows,
				idx: &ix, seekSel: seekSel, covering: covering, order: keys,
			}
		}
	}
	return best
}

// planJoins performs a greedy left-deep join over the access plans and
// returns (cost, output rows, delivered order when single-table).
func (p *blockPlanner) planJoins(plans []*accessPlan) (float64, float64, []string) {
	if len(plans) == 1 {
		return plans[0].cost, plans[0].outRows, plans[0].order
	}

	// Start from the smallest filtered input.
	sort.Slice(plans, func(i, j int) bool {
		if plans[i].outRows != plans[j].outRows {
			return plans[i].outRows < plans[j].outRows
		}
		// Total order: equal-cardinality inputs tie-break on table name so
		// the join order (and thus the plan cost) cannot drift.
		return plans[i].use.Table < plans[j].use.Table
	})
	joined := map[string]bool{plans[0].use.Table: true}
	total := plans[0].cost
	rows := plans[0].outRows
	remaining := plans[1:]

	for len(remaining) > 0 {
		// Prefer a connected table; among connected, the one minimising the
		// joined cardinality.
		bestIdx := -1
		bestRows := math.Inf(1)
		bestConnected := false
		for i, pl := range remaining {
			sel, connected := p.refJoinSelWith(joined, pl.use.Table)
			outRows := rowsAfter(rows*pl.outRows, sel)
			if connected && !bestConnected {
				bestIdx, bestRows, bestConnected = i, outRows, true
				continue
			}
			if connected == bestConnected && outRows < bestRows {
				bestIdx, bestRows = i, outRows
			}
		}
		pl := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		sel, connected := p.refJoinSelWith(joined, pl.use.Table)

		if connected {
			total += p.joinStepCost(rows, pl, sel)
		} else {
			// Cross join: materialise the smaller side.
			total += pl.cost + float64(rows*pl.outRows*p.par.CPUOperator)
		}
		rows = rowsAfter(rows*pl.outRows, sel)
		joined[pl.use.Table] = true
	}
	return total, rows, nil
}

// joinSelWith returns the combined selectivity of all join predicates
// connecting the joined set with table, and whether any exist.
func (p *blockPlanner) refJoinSelWith(joined map[string]bool, table string) (float64, bool) {
	sel := 1.0
	connected := false
	for _, j := range p.blk.Joins {
		lIn, rIn := joined[j.Left.Table], joined[j.Right.Table]
		if (lIn && j.Right.Table == table) || (rIn && j.Left.Table == table) {
			sel *= j.Selectivity
			connected = true
		}
	}
	return sel, connected
}

// joinStepCost chooses between hash join and index-nested-loop join for
// bringing pl into a joined set of `outerRows` rows.
func (p *blockPlanner) joinStepCost(outerRows float64, pl *accessPlan, joinSel float64) float64 {
	// Hash join: access the inner fully, build on the smaller side.
	buildRows := math.Min(outerRows, pl.outRows)
	probeRows := math.Max(outerRows, pl.outRows)
	hash := pl.cost + float64(buildRows*p.par.CPUOperator*p.par.HashBuild) + float64(probeRows*p.par.CPUOperator)

	if p.floorTable != "" && p.floorTable == strings.ToLower(pl.use.Table) {
		// Structural floor for the inner side: any index-nested-loop probe
		// pays at least one random page plus per-match CPU; hash already
		// rides on the floored access cost.
		localSel := localSelectivity(p.filtersByTable[pl.use.Table])
		matchPerProbe := rowsAfter(float64(pl.table.RowCount)*joinSel*localSel, 1)
		inlFloor := outerRows * (p.par.RandPage + matchPerProbe*p.par.CPUTuple)
		return math.Min(hash, inlFloor)
	}

	// Index nested loop: needs an index whose leading key is one of the
	// inner table's join columns.
	inl := math.Inf(1)
	joinCols := p.innerJoinColumns(pl.use.Table)
	needCols, needAll := p.neededColumns(pl.use.Table)
	localSel := localSelectivity(p.filtersByTable[pl.use.Table])
	for _, m := range p.cfg.ForTable(pl.use.Table) {
		ix := m.Index
		lead := strings.ToLower(ix.LeadingKey())
		if !joinCols[lead] {
			continue
		}
		covering := !needAll && ix.Covers(needCols)
		// Matches per probe after the inner's own filters.
		matchPerProbe := rowsAfter(float64(pl.table.RowCount)*joinSel*localSel, 1)
		perProbe := p.par.RandPage // descend (mostly cached interior) + leaf
		if covering {
			perProbe += matchPerProbe * p.par.CPUTuple
		} else {
			perProbe += matchPerProbe * (p.par.RandPage + p.par.CPUTuple)
		}
		if c := outerRows * perProbe; c < inl {
			inl = c
		}
	}
	return math.Min(hash, inl)
}

// innerJoinColumns returns the join columns on table (lower-cased) across
// the block's join predicates.
func (p *blockPlanner) innerJoinColumns(table string) map[string]bool {
	out := map[string]bool{}
	for _, j := range p.blk.Joins {
		if j.Left.Table == table {
			out[strings.ToLower(j.Left.Column)] = true
		}
		if j.Right.Table == table {
			out[strings.ToLower(j.Right.Column)] = true
		}
	}
	return out
}

// estimateGroups estimates the number of groups for the block.
func (p *blockPlanner) estimateGroups(rows float64) float64 {
	return estimateGroups(p.cat, p.blk, rows)
}

// outputWidth estimates the sort row width for the block.
func (p *blockPlanner) outputWidth() int { return outputWidth(p.cat, p.blk) }

// refCostParts is the reference computeCostParts: every block planned
// from scratch, totals summed in block order.
func refCostParts(cat *catalog.Catalog, par Params, q *workload.Query, cfg *index.Configuration) cacheVal {
	if q.Info == nil {
		return cacheVal{}
	}
	var total, aj float64
	for _, blk := range q.Info.Blocks {
		t, a := planBlockParts(cat, cfg, blk, par)
		total += t
		aj += a
	}
	if total <= 0 {
		total = par.CPUTuple
		aj = total
	}
	return cacheVal{c: total, aj: aj}
}
