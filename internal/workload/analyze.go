package workload

import (
	"math"
	"strings"

	"isum/internal/catalog"
	"isum/internal/sqlparser"
)

// Analyze binds a parsed statement against the catalog and extracts the
// per-block tables, filter predicates with selectivities, join predicates,
// and grouping/ordering columns. This is the "plan feature extraction"
// substrate: everything ISUM needs that a commercial tool would read from
// the optimizer's plan (Query Store), derived here directly from the AST
// and catalog statistics.
//
// Unresolvable columns (CTE outputs, projection aliases, derived-table
// columns) are skipped rather than failing: they are not indexable base
// columns.
//
// Analysis has two halves. Name resolution walks the statement, binds
// its columns and tables against the catalog and fixes every field that
// does not depend on a literal value. Estimation (selectivity) computes
// the filter selectivities that do, from an estimate record. Analyze runs
// both in one walk; the other instances of a statement's shape rerun only
// the estimation (shape.go).
func Analyze(cat *catalog.Catalog, stmt *sqlparser.SelectStmt) (*Info, error) {
	a := &analyzer{cat: cat}
	return a.analyze(stmt), nil
}

// Floor for estimated selectivities: keeps utilities finite and mirrors the
// optimizer practice of never estimating zero rows.
const minSelectivity = 1e-5

type analyzer struct {
	cat *catalog.Catalog
	// record makes analyze keep, in ests, the estimate behind every
	// literal-dependent filter selectivity.
	record bool
	ests   []estimate
	// slot and vals, when set, estimate another instance of the analysed
	// statement's shape: the statement's Literal l reads as vals[slot[l]].
	slot map[*sqlparser.Literal]int
	vals []*sqlparser.Literal
}

// estimate is one filter whose selectivity depends on literal values:
// the column compared, the comparison, and the expressions holding the
// literals.
type estimate struct {
	// op is the comparison with the column on the left ("=", "<>", "<",
	// "<=", ">", ">="), "BETWEEN" or "LIKE".
	op  string
	not bool // NOT BETWEEN, NOT LIKE
	col *catalog.Column
	// val is the compared value, BETWEEN's low bound or LIKE's pattern;
	// hi is BETWEEN's high bound.
	val, hi sqlparser.Expr

	// Where the selectivity goes: filter of block blk, which is
	// Info.Blocks[block] (set by newShape), and Info.Filters[flat].
	blk         *Block
	filter      int
	block, flat int
}

func (a *analyzer) analyze(stmt *sqlparser.SelectStmt) *Info {
	info := &Info{}
	a.analyzeSelect(stmt, nil, info)
	info.flatten()
	return info
}

// scope is the name-resolution environment of one SELECT block, linked to
// its enclosing block for correlated references.
type scope struct {
	parent *scope
	// aliases maps alias/table name -> base table name ("" for derived
	// tables and CTE references, which are not indexable).
	aliases map[string]string
	// names lists the keys of aliases in the order the FROM list first
	// binds them; it starts in namesBuf, which holds most FROM lists.
	names    []string
	namesBuf [4]string
	// ctes holds CTE names visible in this block.
	ctes map[string]bool
}

func (s *scope) bind(name, table string) {
	if _, ok := s.aliases[name]; !ok {
		s.names = append(s.names, name)
	}
	s.aliases[name] = table
}

func (s *scope) lookupAlias(name string) (table string, found bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if t, ok := sc.aliases[name]; ok {
			return t, true
		}
	}
	return "", false
}

func (s *scope) isCTE(name string) bool {
	for sc := s; sc != nil; sc = sc.parent {
		if sc.ctes[name] {
			return true
		}
	}
	return false
}

// analyzeSelect analyses one SELECT block (and recursively its nested
// blocks), appending Block records to info.
func (a *analyzer) analyzeSelect(stmt *sqlparser.SelectStmt, parent *scope, info *Info) {
	if stmt == nil {
		return
	}
	sc := &scope{parent: parent, aliases: map[string]string{}, ctes: map[string]bool{}}
	sc.names = sc.namesBuf[:0]

	// CTEs: analyse bodies as sibling blocks; names become non-base tables.
	for _, cte := range stmt.With {
		sc.ctes[strings.ToLower(cte.Name)] = true
		a.analyzeSelect(cte.Select, parent, info)
	}

	blk := &Block{Distinct: stmt.Distinct}
	if stmt.Limit != nil {
		blk.Limit = stmt.Limit
	} else if stmt.Top != nil {
		blk.Limit = stmt.Top
	}

	// FROM: register aliases, recurse into derived tables, collect ON
	// conditions.
	var onConds []sqlparser.Expr
	for _, tr := range stmt.From {
		a.bindTableRef(tr, sc, info, blk, &onConds)
	}

	// Conditions: WHERE plus JOIN ... ON.
	conds := onConds
	if stmt.Where != nil {
		conds = append(conds, stmt.Where)
	}
	for _, c := range conds {
		a.extractCondition(c, sc, blk, info)
	}

	// SELECT list.
	for _, item := range stmt.Items {
		if item.Star {
			blk.SelectStar = true
		}
		if item.Expr == nil {
			continue
		}
		for _, cu := range a.columnsIn(item.Expr, sc) {
			blk.Projected = append(blk.Projected, cu)
		}
		if hasAggregate(item.Expr) {
			blk.HasAgg = true
		}
		for _, sub := range sqlparser.ExprSubqueries(item.Expr) {
			a.analyzeSelect(sub, sc, info)
		}
	}

	// GROUP BY / HAVING / ORDER BY.
	for _, g := range stmt.GroupBy {
		blk.GroupBy = append(blk.GroupBy, a.columnsIn(g, sc)...)
	}
	if stmt.Having != nil {
		// HAVING predicates act post-aggregation; their columns are not
		// indexable filters, but subqueries inside must still be analysed.
		for _, sub := range sqlparser.ExprSubqueries(stmt.Having) {
			a.analyzeSelect(sub, sc, info)
		}
	}
	for _, o := range stmt.OrderBy {
		blk.OrderBy = append(blk.OrderBy, a.columnsIn(o.Expr, sc)...)
	}
	blk.GroupBy = dedupCols(blk.GroupBy)
	blk.OrderBy = dedupCols(blk.OrderBy)
	blk.Projected = dedupCols(blk.Projected)

	info.Blocks = append(info.Blocks, blk)

	if stmt.UnionAll != nil {
		a.analyzeSelect(stmt.UnionAll, parent, info)
	}
}

func (a *analyzer) bindTableRef(tr sqlparser.TableRef, sc *scope, info *Info, blk *Block, onConds *[]sqlparser.Expr) {
	switch t := tr.(type) {
	case *sqlparser.BaseTable:
		name := strings.ToLower(t.Name)
		alias := name
		if t.Alias != "" {
			alias = strings.ToLower(t.Alias)
		}
		if sc.isCTE(name) || a.cat.Table(name) == nil {
			sc.bind(alias, "") // non-base relation
			return
		}
		sc.bind(alias, name)
		blk.Tables = append(blk.Tables, TableUse{Table: name, Alias: alias})
	case *sqlparser.JoinExpr:
		a.bindTableRef(t.Left, sc, info, blk, onConds)
		a.bindTableRef(t.Right, sc, info, blk, onConds)
		if t.On != nil {
			*onConds = append(*onConds, t.On)
		}
	case *sqlparser.SubqueryRef:
		if t.Alias != "" {
			sc.bind(strings.ToLower(t.Alias), "")
		}
		a.analyzeSelect(t.Select, sc, info)
	}
}

// resolve maps a ColumnRef to a base-table column use, or ok=false for
// aliases/CTE outputs/unknown names.
func (a *analyzer) resolve(cr *sqlparser.ColumnRef, sc *scope) (ColumnUse, *catalog.Column, bool) {
	colName := strings.ToLower(cr.Name)
	if cr.Qualifier != "" {
		q := strings.ToLower(cr.Qualifier)
		table, found := sc.lookupAlias(q)
		if !found {
			// Qualifier might be a bare table name not in scope (rare).
			if t := a.cat.Table(q); t != nil && t.Column(colName) != nil {
				return ColumnUse{Table: q, Column: colName}, t.Column(colName), true
			}
			return ColumnUse{}, nil, false
		}
		if table == "" {
			return ColumnUse{}, nil, false // derived/CTE column
		}
		t := a.cat.Table(table)
		if t == nil {
			return ColumnUse{}, nil, false
		}
		c := t.Column(colName)
		if c == nil {
			return ColumnUse{}, nil, false
		}
		return ColumnUse{Table: table, Column: colName}, c, true
	}
	// Unqualified: search in-scope base tables, innermost block first and
	// each block's in FROM order, so that a name two tables share resolves
	// to the same one every time.
	for s := sc; s != nil; s = s.parent {
		for _, name := range s.names {
			table := s.aliases[name]
			if table == "" {
				continue
			}
			t := a.cat.Table(table)
			if t == nil {
				continue
			}
			if c := t.Column(colName); c != nil {
				return ColumnUse{Table: table, Column: colName}, c, true
			}
		}
	}
	return ColumnUse{}, nil, false
}

// columnsIn returns the resolved base columns referenced by e (not
// descending into subqueries).
func (a *analyzer) columnsIn(e sqlparser.Expr, sc *scope) []ColumnUse {
	var out []ColumnUse
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if cr, ok := x.(*sqlparser.ColumnRef); ok {
			if cu, _, ok := a.resolve(cr, sc); ok {
				out = append(out, cu)
			}
		}
		return true
	})
	return out
}

// extractCondition appends the filter and join predicates of a boolean
// condition to blk, and analyses the subqueries inside it.
func (a *analyzer) extractCondition(e sqlparser.Expr, sc *scope, blk *Block, info *Info) {
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case "AND", "OR":
			a.extractCondition(x.L, sc, blk, info)
			a.extractCondition(x.R, sc, blk, info)
		case "=", "<", ">", "<=", ">=", "<>":
			a.extractComparison(x, sc, blk, info)
		}
	case *sqlparser.UnaryExpr:
		if x.Op == "NOT" {
			a.extractCondition(x.X, sc, blk, info)
		}
	case *sqlparser.InExpr:
		a.extractIn(x, sc, blk, info)
	case *sqlparser.BetweenExpr:
		if cu, col, ok := a.leadColumn(x.X, sc); ok {
			a.addEstimated(blk, cu, PredRange, false, estimate{op: "BETWEEN", not: x.Not, col: col, val: x.Lo, hi: x.Hi})
		}
	case *sqlparser.LikeExpr:
		if cu, col, ok := a.leadColumn(x.X, sc); ok {
			a.addEstimated(blk, cu, PredLike, false, estimate{op: "LIKE", not: x.Not, col: col, val: x.Pattern})
		}
	case *sqlparser.IsNullExpr:
		a.extractIsNull(x, sc, blk)
	case *sqlparser.ExistsExpr:
		a.analyzeSelect(x.Subquery, sc, info)
	case *sqlparser.QuantifiedExpr:
		a.analyzeSelect(x.Subquery, sc, info)
		if cu, _, ok := a.leadColumn(x.X, sc); ok {
			blk.Filters = append(blk.Filters, FilterPredicate{
				ColumnUse: cu, Kind: PredRange, Selectivity: catalog.DefaultRangeSelectivity,
			})
		}
	case *sqlparser.SubqueryExpr:
		a.analyzeSelect(x.Select, sc, info)
	}
}

// extractComparison handles binary comparisons: column-vs-constant filters,
// column-vs-column joins, and comparisons against scalar subqueries.
func (a *analyzer) extractComparison(x *sqlparser.BinaryExpr, sc *scope, blk *Block, info *Info) {
	// Analyse embedded scalar subqueries regardless of resolution.
	for _, sub := range sqlparser.ExprSubqueries(x.L) {
		a.analyzeSelect(sub, sc, info)
	}
	for _, sub := range sqlparser.ExprSubqueries(x.R) {
		a.analyzeSelect(sub, sc, info)
	}

	lcu, lcol, lok := a.leadColumn(x.L, sc)
	rcu, rcol, rok := a.leadColumn(x.R, sc)

	switch {
	case lok && rok && x.Op == "=":
		// Equi-join between two base columns (also covers correlated
		// predicates where one side resolves via an enclosing scope).
		sel := catalog.JoinSelectivity(lcol, rcol)
		blk.Joins = append(blk.Joins, JoinPredicate{Left: lcu, Right: rcu, Selectivity: sel})
	case lok && rok:
		// Non-equi column comparison: treat both as range filters.
		sel := catalog.DefaultRangeSelectivity
		blk.Filters = append(blk.Filters,
			FilterPredicate{ColumnUse: lcu, Kind: PredRange, Selectivity: sel},
			FilterPredicate{ColumnUse: rcu, Kind: PredRange, Selectivity: sel})
	case lok:
		a.columnConstFilter(x.Op, lcu, lcol, x.R, blk)
	case rok:
		a.columnConstFilter(flip(x.Op), rcu, rcol, x.L, blk)
	}
}

// flip returns the comparison that holds with its operands swapped.
func flip(op string) string {
	switch op {
	case "<":
		return ">"
	case ">":
		return "<"
	case "<=":
		return ">="
	case ">=":
		return "<="
	}
	return op
}

// columnConstFilter records a filter predicate col OP val where val is a
// constant (or opaque).
func (a *analyzer) columnConstFilter(op string, cu ColumnUse, col *catalog.Column, val sqlparser.Expr, blk *Block) {
	kind := PredRange
	if op == "=" {
		kind = PredEq
	}
	a.addEstimated(blk, cu, kind, op == "=", estimate{op: op, col: col, val: val})
}

func (a *analyzer) extractIn(x *sqlparser.InExpr, sc *scope, blk *Block, info *Info) {
	if x.Subquery != nil {
		a.analyzeSelect(x.Subquery, sc, info)
	}
	cu, col, ok := a.leadColumn(x.X, sc)
	if !ok {
		return
	}
	var sel float64
	if x.Subquery != nil {
		sel = 0.3 // semi-join default
	} else {
		sel = col.InSelectivity(len(x.List))
	}
	if x.Not {
		sel = clamp(1 - sel)
	}
	blk.Filters = append(blk.Filters, FilterPredicate{
		ColumnUse: cu, Kind: PredIn, Selectivity: clamp(sel), SargableEq: !x.Not,
	})
}

func (a *analyzer) extractIsNull(x *sqlparser.IsNullExpr, sc *scope, blk *Block) {
	cu, col, ok := a.leadColumn(x.X, sc)
	if !ok {
		return
	}
	sel := col.NullSelectivity()
	if x.Not {
		sel = 1 - sel
	}
	blk.Filters = append(blk.Filters, FilterPredicate{ColumnUse: cu, Kind: PredNull, Selectivity: clamp(sel)})
}

// addEstimated appends to blk the filter on cu whose selectivity e
// estimates from literal values, and records e when a.record is set.
func (a *analyzer) addEstimated(blk *Block, cu ColumnUse, kind PredKind, sargable bool, e estimate) {
	e.blk, e.filter = blk, len(blk.Filters)
	blk.Filters = append(blk.Filters, FilterPredicate{
		ColumnUse: cu, Kind: kind, Selectivity: a.selectivity(&e), SargableEq: sargable,
	})
	if a.record {
		a.ests = append(a.ests, e)
	}
}

// selectivity is the estimation half of the analysis: the selectivity of
// the filter e describes, from the values of its literals.
func (a *analyzer) selectivity(e *estimate) float64 {
	col := e.col
	var sel float64
	switch e.op {
	case "LIKE":
		sel = catalog.DefaultLikeSelectivity
		if lit, isLit := e.val.(*sqlparser.Literal); isLit && lit.Kind == sqlparser.LitString {
			p := a.literal(lit).Str
			switch {
			case !strings.ContainsAny(p, "%_"):
				sel = 0.005 // effectively equality
			case !strings.HasPrefix(p, "%") && !strings.HasPrefix(p, "_"):
				sel = 0.03 // prefix match: seekable range
			default:
				sel = 0.1 // contains/suffix: scan
			}
		}
	case "BETWEEN":
		lo, lok := a.evalConst(e.val)
		hi, hok := a.evalConst(e.hi)
		if lok && hok {
			sel = col.RangeSelectivity(lo, hi, true, true)
		} else {
			sel = catalog.DefaultRangeSelectivity
		}
	default:
		v, known := a.evalConst(e.val)
		switch e.op {
		case "=":
			if known {
				sel = col.EqSelectivity(v)
			} else {
				sel = unknownEq(col)
			}
		case "<>":
			if known {
				sel = 1 - col.EqSelectivity(v)
			} else {
				sel = 1 - unknownEq(col)
			}
		case "<", "<=":
			if known {
				sel = col.RangeSelectivity(math.Inf(-1), v, true, e.op == "<=")
			} else {
				sel = catalog.DefaultRangeSelectivity
			}
		default: // ">", ">="
			if known {
				sel = col.RangeSelectivity(v, math.Inf(1), e.op == ">=", true)
			} else {
				sel = catalog.DefaultRangeSelectivity
			}
		}
	}
	if e.not {
		sel = 1 - sel
	}
	return clamp(sel)
}

// literal returns the Literal that stands for l in the statement being
// estimated.
func (a *analyzer) literal(l *sqlparser.Literal) *sqlparser.Literal {
	if i, ok := a.slot[l]; ok {
		return a.vals[i]
	}
	return l
}

// leadColumn returns the first resolvable base column inside an expression
// (e.g. the l_extendedprice in l_extendedprice*(1-l_discount)), skipping
// subqueries.
func (a *analyzer) leadColumn(e sqlparser.Expr, sc *scope) (ColumnUse, *catalog.Column, bool) {
	var cu ColumnUse
	var col *catalog.Column
	found := false
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if found {
			return false
		}
		switch cr := x.(type) {
		case *sqlparser.ColumnRef:
			if u, c, ok := a.resolve(cr, sc); ok {
				cu, col, found = u, c, true
				return false
			}
		case *sqlparser.SubqueryExpr:
			return false
		}
		return true
	})
	return cu, col, found
}

// evalConst attempts to evaluate an expression to a numeric constant:
// numbers directly; date strings as day numbers; date arithmetic with
// intervals; CASTs transparently.
func (a *analyzer) evalConst(e sqlparser.Expr) (float64, bool) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		x = a.literal(x)
		switch x.Kind {
		case sqlparser.LitNumber:
			return x.Num, true
		case sqlparser.LitString:
			if d, ok := ParseDateDays(x.Str); ok {
				return d, true
			}
			return 0, false
		case sqlparser.LitInterval:
			if d, ok := IntervalDays(x.Str); ok {
				return d, true
			}
			return 0, false
		default:
			return 0, false
		}
	case *sqlparser.UnaryExpr:
		if x.Op == "-" {
			if v, ok := a.evalConst(x.X); ok {
				return -v, true
			}
		}
		return 0, false
	case *sqlparser.BinaryExpr:
		l, lok := a.evalConst(x.L)
		r, rok := a.evalConst(x.R)
		if !lok || !rok {
			return 0, false
		}
		switch x.Op {
		case "+":
			return l + r, true
		case "-":
			return l - r, true
		case "*":
			return l * r, true
		case "/":
			if r == 0 {
				return 0, false
			}
			return l / r, true
		}
		return 0, false
	case *sqlparser.CastExpr:
		return a.evalConst(x.X)
	default:
		return 0, false
	}
}

// unknownEq is the equality selectivity when the comparison value is not a
// evaluable constant: fall back to density.
func unknownEq(col *catalog.Column) float64 {
	if col.DistinctCount > 0 {
		return clamp((1 - col.NullFraction) / float64(col.DistinctCount))
	}
	return catalog.DefaultEqSelectivity
}

func hasAggregate(e sqlparser.Expr) bool {
	agg := false
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if fc, ok := x.(*sqlparser.FuncCall); ok {
			switch fc.Name {
			case "SUM", "COUNT", "AVG", "MIN", "MAX", "STDDEV", "VAR":
				agg = true
				return false
			}
		}
		return true
	})
	return agg
}

func clamp(s float64) float64 {
	if math.IsNaN(s) || s < minSelectivity {
		return minSelectivity
	}
	if s > 1 {
		return 1
	}
	return s
}
