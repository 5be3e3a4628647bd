package cost

import (
	"math"
	"slices"
	"sort"
	"strings"

	"isum/internal/catalog"
	"isum/internal/index"
	"isum/internal/workload"
)

// The what-if planner is compiled (DESIGN.md §17). Its join order and
// every cardinality depend only on base statistics, so a query's plan
// splits into a skeleton that no configuration can change, built once per
// query text, and per-index access atoms, built once per (query, index).
// A what-if call folds the configuration's atoms through the skeleton in
// the reference planner's float-operation order, so costs are bitwise the
// ones planning from scratch would give. Terms precomputed here and added
// later are wrapped in an explicit float64(): the conversion forces the
// rounding, so no platform can fuse the multiply into a later add.
// TestCompiledPlanMatchesReference pins the kernel against the reference
// planner, which lives in reference_test.go.

// planSkeleton is the configuration-independent part of one query's plan.
// It is immutable once built, so concurrent what-if calls share it.
type planSkeleton struct {
	blocks []skelBlock
	occs   []skelOcc // every block's table occurrences, block by block, each block's in join order
}

// skelBlock is one SELECT block of the skeleton.
type skelBlock struct {
	blk    *workload.Block
	lo, hi int32 // the block's occurrences are occs[lo:hi]; none for a constant block

	// The tail's terms, each exactly what the planner adds to the block
	// total when it applies.
	streamAgg float64 // GROUP BY over input delivered in group order
	hashAgg   float64 // GROUP BY otherwise
	aggCPU    float64 // aggregate without GROUP BY
	distinct  float64 // DISTINCT without GROUP BY
	sort      float64 // ORDER BY not delivered by the access path
}

// skelOcc is one table occurrence, in join order.
type skelOcc struct {
	name     string // the table as the block names it: the key of its filters and joins
	table    string // lower-cased name: the configuration lookup key
	t        *catalog.Table
	pos      int32    // position among the block's resolved occurrences in FROM order
	scan     float64  // heap scan cost
	outRows  float64  // rows after local filters
	localSel float64  // combined selectivity of the table's filters
	needCols []string // lower-cased columns the block needs from the table, sorted
	needAll  bool     // SELECT *: the block needs every column

	// The join step that brings this occurrence in; unset for a block's
	// first occurrence.
	connected     bool
	outer         float64 // rows joined before the step
	hashA, hashB  float64 // hash join's build and probe terms beyond the inner's access cost
	cross         float64 // cross join's term beyond the inner's access cost
	matchPerProbe float64 // inner rows per index-nested-loop probe
}

// buildSkeleton compiles the configuration-independent plan of a query.
func buildSkeleton(cat *catalog.Catalog, par Params, info *workload.Info) *planSkeleton {
	n := 0
	for _, blk := range info.Blocks {
		n += len(blk.Tables)
	}
	s := &planSkeleton{blocks: make([]skelBlock, len(info.Blocks)), occs: make([]skelOcc, 0, n)}
	for i, blk := range info.Blocks {
		s.blocks[i] = s.addBlock(cat, par, blk)
	}
	return s
}

// addBlock appends blk's occurrences in join order and returns its block.
func (s *planSkeleton) addBlock(cat *catalog.Catalog, par Params, blk *workload.Block) skelBlock {
	b := skelBlock{blk: blk, lo: int32(len(s.occs))}
	for _, tu := range blk.Tables {
		t := cat.Table(tu.Table)
		if t == nil {
			continue
		}
		localSel := 1.0
		for _, f := range blk.Filters {
			if f.Table == tu.Table {
				localSel *= f.Selectivity
			}
		}
		if localSel < 1e-9 {
			localSel = 1e-9
		}
		needCols, needAll := blockNeededColumns(blk, tu.Table)
		s.occs = append(s.occs, skelOcc{
			name: tu.Table, table: strings.ToLower(tu.Table), t: t,
			pos:      int32(len(s.occs)) - b.lo,
			scan:     par.scanCost(t),
			outRows:  rowsAfter(float64(t.RowCount), localSel),
			localSel: localSel,
			needCols: needCols, needAll: needAll,
		})
	}
	b.hi = int32(len(s.occs))
	occs := s.occs[b.lo:b.hi]
	if len(occs) == 0 {
		return b // constant block, e.g. SELECT 1
	}
	rows := occs[0].outRows
	if len(occs) > 1 {
		rows = orderJoins(par, blk, occs)
	}

	if len(blk.GroupBy) > 0 {
		groups := estimateGroups(cat, blk, rows)
		b.streamAgg = par.streamAggCost(rows)
		b.hashAgg = par.hashAggCost(rows, groups)
		rows = groups
	} else if blk.HasAgg {
		b.aggCPU = float64(rows * par.CPUOperator)
		rows = 1
	}
	if blk.Distinct && len(blk.GroupBy) == 0 {
		b.distinct = par.hashAggCost(rows, rows)
	}
	if len(blk.OrderBy) > 0 {
		b.sort = par.sortCost(rows, outputWidth(cat, blk))
	}
	return b
}

// orderJoins reorders occs, given in FROM order, into the planner's
// greedy left-deep join order, fills in each step, and returns the join's
// output rows. The join starts from the smallest filtered input, equal
// cardinalities breaking on table name; occurrences that tie on both are
// the same table under the same filters, so any order among them plans
// alike. Each later step prefers a table connected to the joined set and,
// among those, the one minimising the joined cardinality, first wins.
func orderJoins(par Params, blk *workload.Block, occs []skelOcc) float64 {
	slices.SortStableFunc(occs, func(a, b skelOcc) int {
		switch {
		case a.outRows < b.outRows:
			return -1
		case a.outRows > b.outRows:
			return 1
		}
		return strings.Compare(a.name, b.name)
	})
	var joinedBuf [8]string
	joined := append(joinedBuf[:0], occs[0].name)
	rows := occs[0].outRows
	for k := 1; k < len(occs); k++ {
		best, bestRows, bestConnected := -1, math.Inf(1), false
		for i := k; i < len(occs); i++ {
			sel, connected := joinSelWith(blk, joined, occs[i].name)
			out := rowsAfter(rows*occs[i].outRows, sel)
			if connected && !bestConnected {
				best, bestRows, bestConnected = i, out, true
				continue
			}
			if connected == bestConnected && out < bestRows {
				best, bestRows = i, out
			}
		}
		// Move the chosen occurrence to position k; the rest keep their
		// order, as the reference's remaining list does.
		pl := occs[best]
		copy(occs[k+1:best+1], occs[k:best])
		sel, connected := joinSelWith(blk, joined, pl.name)
		pl.connected = connected
		pl.outer = rows
		pl.hashA = float64(math.Min(rows, pl.outRows) * par.CPUOperator * par.HashBuild)
		pl.hashB = float64(math.Max(rows, pl.outRows) * par.CPUOperator)
		pl.cross = float64(rows * pl.outRows * par.CPUOperator)
		pl.matchPerProbe = rowsAfter(float64(pl.t.RowCount)*sel*pl.localSel, 1)
		occs[k] = pl
		rows = rowsAfter(rows*pl.outRows, sel)
		joined = append(joined, pl.name)
	}
	return rows
}

// joinSelWith returns the combined selectivity of all join predicates
// connecting the joined tables with table, and whether any exist.
func joinSelWith(blk *workload.Block, joined []string, table string) (float64, bool) {
	sel := 1.0
	connected := false
	for _, j := range blk.Joins {
		lIn, rIn := slices.Contains(joined, j.Left.Table), slices.Contains(joined, j.Right.Table)
		if (lIn && j.Right.Table == table) || (rIn && j.Left.Table == table) {
			sel *= j.Selectivity
			connected = true
		}
	}
	return sel, connected
}

// accessAtom is one index's contribution to one query's plan: for each
// occurrence of the index's table, its access path and its use as an
// index-nested-loop inner.
type accessAtom struct {
	id   string      // canonical index ID: breaks exact access-cost ties
	ix   index.Index // reported by Explain
	occs []atomOcc   // ascending by occ
}

// uselessAtom stands for every index the planner can never use in a
// query: it has no entries, so the fold skips it.
var uselessAtom = &accessAtom{}

// atomOcc is an index's use at one occurrence.
type atomOcc struct {
	occ         int32
	covering    bool    // the index holds every column the block needs from the table
	coversGroup bool    // single-table block: key order streams the GROUP BY
	coversOrder bool    // single-table block: key order delivers the ORDER BY
	access      float64 // seek or covering-scan cost; +Inf when the index offers neither
	seekSel     float64 // fraction of the index the seek reaches (1 for a covering scan)
	inl         float64 // index-nested-loop cost of the occurrence's join step; +Inf when unusable
}

// buildAtom compiles ix's access atom against the skeleton.
func (s *planSkeleton) buildAtom(par Params, m *index.Member) *accessAtom {
	ix := m.Index
	table := strings.ToLower(ix.Table)
	lead := strings.ToLower(ix.LeadingKey())
	keys := make([]string, len(ix.Keys))
	for i, k := range ix.Keys {
		keys[i] = strings.ToLower(k)
	}
	inf := math.Inf(1)
	var occs []atomOcc
	for bi := range s.blocks {
		b := &s.blocks[bi]
		// Filters, needed columns and join columns are per table name, so
		// every occurrence of the table in a block shares one access path.
		var path atomOcc
		pathFor := ""
		for k := b.lo; k < b.hi; k++ {
			oc := &s.occs[k]
			if oc.table != table {
				continue
			}
			if pathFor != oc.name {
				path = accessPath(par, b.blk, oc, ix)
				pathFor = oc.name
			}
			ao := path
			ao.occ = k
			ao.inl = inf
			if k > b.lo && oc.connected && isJoinColumn(b.blk, oc.name, lead) {
				// Matches per probe after the inner's own filters.
				perProbe := par.RandPage // descend (mostly cached interior) + leaf
				if ao.covering {
					perProbe += oc.matchPerProbe * par.CPUTuple
				} else {
					perProbe += oc.matchPerProbe * (par.RandPage + par.CPUTuple)
				}
				ao.inl = oc.outer * perProbe
			}
			if b.hi-b.lo == 1 {
				ao.coversGroup = orderCovers(keys, b.blk.GroupBy)
				ao.coversOrder = orderCovers(keys, b.blk.OrderBy)
			}
			if ao.access < inf || ao.inl < inf {
				occs = append(occs, ao)
			}
		}
	}
	if occs == nil {
		return uselessAtom
	}
	return &accessAtom{id: m.ID, ix: ix, occs: occs}
}

// accessPath costs ix as the access path of occurrence oc: a seek on its
// matched key prefix, a covering scan, or nothing (+Inf).
func accessPath(par Params, blk *workload.Block, oc *skelOcc, ix index.Index) atomOcc {
	covering := !oc.needAll && ix.Covers(oc.needCols)
	leaf := leafPages(oc.t, ix)

	// Match a seekable key prefix.
	seekSel := 1.0
	matched := 0
	for _, key := range ix.Keys {
		f, ok := bestFilter(blk, oc.name, strings.ToLower(key))
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

	c := math.Inf(1)
	switch {
	case matched > 0:
		matchedRows := rowsAfter(float64(oc.t.RowCount), seekSel)
		c = par.Seek + leaf*seekSel*par.SeqPage + matchedRows*par.CPUTuple
		if !covering {
			c += matchedRows * par.RandPage
		}
	case covering:
		// Covering scan of the (narrower) index.
		c = leaf*par.SeqPage + float64(oc.t.RowCount)*par.CPUTuple
	}
	return atomOcc{covering: covering, access: c, seekSel: seekSel}
}

// bestFilter returns the most selective of table's filters on the
// (lower-cased) column, the first one winning ties.
func bestFilter(blk *workload.Block, table, col string) (workload.FilterPredicate, bool) {
	var best workload.FilterPredicate
	found := false
	for _, f := range blk.Filters {
		if f.Table != table || strings.ToLower(f.Column) != col {
			continue
		}
		if !found || f.Selectivity < best.Selectivity {
			best, found = f, true
		}
	}
	return best, found
}

// isJoinColumn reports whether the (lower-cased) column is one of table's
// join columns in the block.
func isJoinColumn(blk *workload.Block, table, col string) bool {
	for _, j := range blk.Joins {
		if (j.Left.Table == table && strings.ToLower(j.Left.Column) == col) ||
			(j.Right.Table == table && strings.ToLower(j.Right.Column) == col) {
			return true
		}
	}
	return false
}

// eval folds the atoms of a configuration's relevant indexes through the
// skeleton and returns the plan's cost and access+join subtotal. cur is
// scratch, one cursor per atom.
//
//lint:hotpath the what-if kernel, run on every plan computation
func (s *planSkeleton) eval(par Params, atoms []*accessAtom, cur []int32) planCost {
	for i := range cur {
		cur[i] = 0
	}
	var total, aj float64
	for bi := range s.blocks {
		t, a := s.evalBlock(par, &s.blocks[bi], atoms, cur)
		total += t
		aj += a
	}
	if total <= 0 {
		// Only reachable with zero blocks (every planned block costs at
		// least one CPU tuple), so the subtotal clamps with the total and
		// the derived bounds stay tight and sound.
		total = par.CPUTuple
		aj = total
	}
	return planCost{c: total, aj: aj}
}

// evalBlock returns one block's cost and its access+join subtotal, the
// subtotal read before the aggregation/sort tail is added.
//
//lint:hotpath the what-if kernel, run on every plan computation
func (s *planSkeleton) evalBlock(par Params, b *skelBlock, atoms []*accessAtom, cur []int32) (total, aj float64) {
	if b.lo == b.hi {
		return par.CPUTuple, par.CPUTuple
	}
	var first *atomOcc
	for k := b.lo; k < b.hi; k++ {
		oc := &s.occs[k]
		acc, inl, _, chosen := pickAccess(oc.scan, k, atoms, cur)
		switch {
		case k == b.lo:
			total, first = acc, chosen
		case oc.connected:
			total += math.Min(acc+oc.hashA+oc.hashB, inl)
		default:
			total += acc + oc.cross
		}
	}
	aj = total

	blk := b.blk
	single := b.hi-b.lo == 1
	if len(blk.GroupBy) > 0 {
		if single && first != nil && first.coversGroup {
			total += b.streamAgg
		} else {
			total += b.hashAgg
		}
	} else if blk.HasAgg {
		total += b.aggCPU
	}
	if blk.Distinct && len(blk.GroupBy) == 0 {
		total += b.distinct
	}
	if len(blk.OrderBy) > 0 {
		avoided := single && len(blk.GroupBy) == 0 && first != nil && first.coversOrder
		if !avoided {
			total += b.sort
		}
	}
	return total, aj
}

// pickAccess chooses occurrence k's access path: the cheapest of the heap
// scan and every atom's path. Exact ties go to the scan, then to the
// lowest index ID, so the choice never depends on the order indexes were
// added. It also returns the cheapest index-nested-loop cost for the
// occurrence's join step, and advances cur past the atoms' entries for k.
//
//lint:hotpath the what-if kernel, run on every plan computation
func pickAccess(scan float64, k int32, atoms []*accessAtom, cur []int32) (acc, inl float64, ca *accessAtom, chosen *atomOcc) {
	acc, inl = scan, math.Inf(1)
	for i, a := range atoms {
		c := cur[i]
		if int(c) >= len(a.occs) || a.occs[c].occ != k {
			continue
		}
		cur[i] = c + 1
		ao := &a.occs[c]
		if ao.access < acc || (ao.access == acc && ca != nil && a.id < ca.id) {
			acc, ca, chosen = ao.access, a, ao
		}
		if ao.inl < inl {
			inl = ao.inl
		}
	}
	return acc, inl, ca, chosen
}

// tailBounds bounds the block's aggregation/sort tail across all possible
// configurations. The tail's term magnitudes are configuration-
// independent; only binary choices — stream vs hash aggregation, sort
// avoided vs paid — depend on the delivered order, so the bounds take the
// min/max over the reachable choices. Used by the elision layer; see
// DESIGN.md §16.
func (b *skelBlock) tailBounds() (minTail, maxTail float64) {
	if b.lo == b.hi {
		return 0, 0
	}
	blk := b.blk
	single := b.hi-b.lo == 1
	if len(blk.GroupBy) > 0 {
		if single {
			// A covering order can enable stream aggregation.
			minTail += math.Min(b.streamAgg, b.hashAgg)
			maxTail += math.Max(b.streamAgg, b.hashAgg)
		} else {
			minTail += b.hashAgg
			maxTail += b.hashAgg
		}
	} else if blk.HasAgg {
		minTail += b.aggCPU
		maxTail += b.aggCPU
	}
	if blk.Distinct && len(blk.GroupBy) == 0 {
		minTail += b.distinct
		maxTail += b.distinct
	}
	if len(blk.OrderBy) > 0 {
		if !(single && len(blk.GroupBy) == 0) {
			// Sort can never be avoided: multi-table plans deliver no
			// order, and a group-by consumes the single-table order.
			minTail += b.sort
		}
		maxTail += b.sort
	}
	return minTail, maxTail
}

// floorAJ is the block's structural access+join floor: the access+join
// subtotal under the empty configuration, except that the named
// (lower-cased) table's access and inner-join costs are replaced by
// bounds valid for ANY index on it. The result lower-bounds the block's
// access+join subtotal under every configuration whose indexes are all on
// that table (other tables keep their empty-configuration plans, which
// such configurations cannot change).
func (s *planSkeleton) floorAJ(par Params, b *skelBlock, table string) float64 {
	if b.lo == b.hi {
		return par.CPUTuple
	}
	var total float64
	for k := b.lo; k < b.hi; k++ {
		oc := &s.occs[k]
		acc := oc.scan
		floored := oc.table == table
		if floored {
			// Cheaper than any reachable access path. A seek costs at
			// least leaf·seekSel·SeqPage + matchedRows·CPUTuple with
			// leaf ≥ 1, seekSel ≥ localSel and matchedRows ≥ outRows; a
			// covering scan at least SeqPage + RowCount·CPUTuple; a heap
			// scan exactly scanCost.
			acc = oc.localSel*par.SeqPage + oc.outRows*par.CPUTuple
			if oc.scan < acc {
				acc = oc.scan
			}
		}
		switch {
		case k == b.lo:
			total = acc
		case oc.connected:
			hash := acc + oc.hashA + oc.hashB
			if floored {
				// Any index-nested-loop probe pays at least one random
				// page plus per-match CPU; hash already rides on the
				// floored access cost.
				hash = math.Min(hash, oc.outer*(par.RandPage+oc.matchPerProbe*par.CPUTuple))
			}
			total += hash
		default:
			total += acc + oc.cross
		}
	}
	return total
}

// blockNeededColumns returns the (lower-cased) columns of table needed
// anywhere in the block, sorted, and whether the block needs every column
// (SELECT *). The skeleton keeps them per occurrence; the elision layer's
// structural relevance test (IndexRelevant) calls it directly.
func blockNeededColumns(blk *workload.Block, table string) ([]string, bool) {
	if blk.SelectStar {
		return nil, true
	}
	// Count first, so the one allocation is the result: skeleton builds
	// call this per occurrence, on the cold path of every first call.
	n := 0
	eachColumnUse(blk, func(cu workload.ColumnUse) {
		if cu.Table == table {
			n++
		}
	})
	cols := make([]string, 0, n)
	eachColumnUse(blk, func(cu workload.ColumnUse) {
		if cu.Table == table {
			if c := strings.ToLower(cu.Column); !slices.Contains(cols, c) {
				cols = append(cols, c)
			}
		}
	})
	sort.Strings(cols)
	return cols, false
}

// eachColumnUse calls fn with every column the block's filters, joins,
// GROUP BY, ORDER BY and projection use.
func eachColumnUse(blk *workload.Block, fn func(workload.ColumnUse)) {
	for _, f := range blk.Filters {
		fn(f.ColumnUse)
	}
	for _, j := range blk.Joins {
		fn(j.Left)
		fn(j.Right)
	}
	for _, c := range blk.GroupBy {
		fn(c)
	}
	for _, c := range blk.OrderBy {
		fn(c)
	}
	for _, c := range blk.Projected {
		fn(c)
	}
}

// leafPages estimates the number of leaf pages in an index on t.
func leafPages(t *catalog.Table, ix index.Index) float64 {
	entry := 8
	for _, name := range ix.AllColumns() {
		if c := t.Column(name); c != nil {
			entry += c.Width()
		} else {
			entry += 8
		}
	}
	perPage := catalog.PageSizeBytes / entry
	if perPage < 1 {
		perPage = 1
	}
	pages := float64(t.RowCount) / float64(perPage)
	if pages < 1 {
		pages = 1
	}
	return pages
}

// estimateGroups estimates the number of groups as the capped product of the
// group-by columns' distinct counts.
func estimateGroups(cat *catalog.Catalog, blk *workload.Block, rows float64) float64 {
	groups := 1.0
	for _, g := range blk.GroupBy {
		t := cat.Table(g.Table)
		if t == nil {
			continue
		}
		if c := t.Column(g.Column); c != nil && c.DistinctCount > 0 {
			groups *= float64(c.DistinctCount)
		} else {
			groups *= 100
		}
		if groups > rows {
			return rows
		}
	}
	if groups > rows {
		groups = rows
	}
	if groups < 1 {
		groups = 1
	}
	return groups
}

// outputWidth estimates the sort row width for the block.
func outputWidth(cat *catalog.Catalog, blk *workload.Block) int {
	w := 0
	for _, cu := range blk.Projected {
		if t := cat.Table(cu.Table); t != nil {
			if c := t.Column(cu.Column); c != nil {
				w += c.Width()
			}
		}
	}
	if w == 0 {
		w = 32
	}
	return w
}

// orderCovers reports whether the delivered order's prefix covers the
// requested columns (order-insensitive on the requested side: any
// permutation of a key prefix still allows streaming for group-by, and we
// accept the same approximation for order-by).
func orderCovers(order []string, want []workload.ColumnUse) bool {
	if len(order) < len(want) || len(want) == 0 {
		return false
	}
	prefix := map[string]bool{}
	for _, c := range order[:len(want)] {
		prefix[c] = true
	}
	for _, cu := range want {
		if !prefix[strings.ToLower(cu.Column)] {
			return false
		}
	}
	return true
}
