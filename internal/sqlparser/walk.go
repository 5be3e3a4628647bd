package sqlparser

// WalkExpr calls fn for e and every sub-expression (pre-order). Subqueries
// embedded in expressions are NOT descended into; use WalkStatement for
// whole-query traversal. Returning false from fn stops descent below that
// node.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *UnaryExpr:
		WalkExpr(x.X, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *InExpr:
		WalkExpr(x.X, fn)
		for _, a := range x.List {
			WalkExpr(a, fn)
		}
	case *BetweenExpr:
		WalkExpr(x.X, fn)
		WalkExpr(x.Lo, fn)
		WalkExpr(x.Hi, fn)
	case *LikeExpr:
		WalkExpr(x.X, fn)
		WalkExpr(x.Pattern, fn)
	case *IsNullExpr:
		WalkExpr(x.X, fn)
	case *QuantifiedExpr:
		WalkExpr(x.X, fn)
	case *CaseExpr:
		WalkExpr(x.Operand, fn)
		for _, w := range x.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Result, fn)
		}
		WalkExpr(x.Else, fn)
	case *CastExpr:
		WalkExpr(x.X, fn)
	}
}

// ExprSubqueries returns all subqueries directly embedded in an expression
// tree (EXISTS, IN (SELECT ...), scalar subqueries, quantified comparisons),
// without recursing into the subqueries themselves.
func ExprSubqueries(e Expr) []*SelectStmt {
	var subs []*SelectStmt
	WalkExpr(e, func(x Expr) bool {
		switch s := x.(type) {
		case *ExistsExpr:
			subs = append(subs, s.Subquery)
		case *InExpr:
			if s.Subquery != nil {
				subs = append(subs, s.Subquery)
			}
		case *SubqueryExpr:
			subs = append(subs, s.Select)
		case *QuantifiedExpr:
			subs = append(subs, s.Subquery)
		}
		return true
	})
	return subs
}

// WalkStatement calls fn for stmt and every nested SELECT (CTEs, derived
// tables, expression subqueries, UNION branches), pre-order.
func WalkStatement(stmt *SelectStmt, fn func(*SelectStmt)) {
	if stmt == nil {
		return
	}
	fn(stmt)
	for _, cte := range stmt.With {
		WalkStatement(cte.Select, fn)
	}
	for _, tr := range stmt.From {
		walkTableRef(tr, fn)
	}
	for _, e := range statementExprs(stmt) {
		for _, sub := range ExprSubqueries(e) {
			WalkStatement(sub, fn)
		}
	}
	WalkStatement(stmt.UnionAll, fn)
}

func walkTableRef(tr TableRef, fn func(*SelectStmt)) {
	switch t := tr.(type) {
	case *JoinExpr:
		walkTableRef(t.Left, fn)
		walkTableRef(t.Right, fn)
		if t.On != nil {
			for _, sub := range ExprSubqueries(t.On) {
				WalkStatement(sub, fn)
			}
		}
	case *SubqueryRef:
		WalkStatement(t.Select, fn)
	}
}

// statementExprs returns the top-level expressions of a single SELECT block
// (no recursion into nested selects).
func statementExprs(stmt *SelectStmt) []Expr {
	var out []Expr
	for _, it := range stmt.Items {
		if it.Expr != nil {
			out = append(out, it.Expr)
		}
	}
	if stmt.Where != nil {
		out = append(out, stmt.Where)
	}
	out = append(out, stmt.GroupBy...)
	if stmt.Having != nil {
		out = append(out, stmt.Having)
	}
	for _, o := range stmt.OrderBy {
		out = append(out, o.Expr)
	}
	return out
}

// BaseTables returns every base table referenced anywhere in the statement,
// including nested queries, in first-appearance order. CTE names are
// excluded (they are not base tables) unless they shadow nothing.
func BaseTables(stmt *SelectStmt) []*BaseTable {
	cteNames := map[string]bool{}
	WalkStatement(stmt, func(s *SelectStmt) {
		for _, cte := range s.With {
			cteNames[lower(cte.Name)] = true
		}
	})
	var out []*BaseTable
	WalkStatement(stmt, func(s *SelectStmt) {
		for _, tr := range s.From {
			collectBaseTables(tr, cteNames, &out)
		}
	})
	return out
}

func collectBaseTables(tr TableRef, cteNames map[string]bool, out *[]*BaseTable) {
	switch t := tr.(type) {
	case *BaseTable:
		if !cteNames[lower(t.Name)] {
			*out = append(*out, t)
		}
	case *JoinExpr:
		collectBaseTables(t.Left, cteNames, out)
		collectBaseTables(t.Right, cteNames, out)
	case *SubqueryRef:
		// handled by WalkStatement
	}
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}
