package sqlparser

import (
	"strings"
	"testing"
)

// roundTrip parses sql, renders it, reparses, and checks the two renderings
// agree — the parser's main correctness property.
func roundTrip(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	out1 := stmt.SQL()
	stmt2, err := Parse(out1)
	if err != nil {
		t.Fatalf("reparse %q: %v", out1, err)
	}
	out2 := stmt2.SQL()
	if out1 != out2 {
		t.Fatalf("round trip unstable:\n 1: %s\n 2: %s", out1, out2)
	}
	return stmt
}

func TestParseSimpleSelect(t *testing.T) {
	stmt := roundTrip(t, "SELECT a, b FROM t WHERE a = 1")
	if len(stmt.Items) != 2 {
		t.Fatalf("items = %d", len(stmt.Items))
	}
	if len(stmt.From) != 1 {
		t.Fatalf("from = %d", len(stmt.From))
	}
	be, ok := stmt.Where.(*BinaryExpr)
	if !ok || be.Op != "=" {
		t.Fatalf("where = %#v", stmt.Where)
	}
}

func TestParseStar(t *testing.T) {
	stmt := roundTrip(t, "SELECT * FROM t")
	if !stmt.Items[0].Star {
		t.Fatal("expected star item")
	}
	stmt = roundTrip(t, "SELECT t.* FROM t")
	if !stmt.Items[0].Star || stmt.Items[0].Table != "t" {
		t.Fatal("expected qualified star")
	}
}

func TestParseAliases(t *testing.T) {
	stmt := roundTrip(t, "SELECT a AS x, b y FROM orders o, customer AS c")
	if stmt.Items[0].Alias != "x" || stmt.Items[1].Alias != "y" {
		t.Fatalf("aliases = %q, %q", stmt.Items[0].Alias, stmt.Items[1].Alias)
	}
	bt := stmt.From[0].(*BaseTable)
	if bt.Name != "orders" || bt.Alias != "o" {
		t.Fatalf("table = %+v", bt)
	}
	bt2 := stmt.From[1].(*BaseTable)
	if bt2.Alias != "c" {
		t.Fatalf("table = %+v", bt2)
	}
}

func TestParseExplicitJoins(t *testing.T) {
	stmt := roundTrip(t, `SELECT * FROM a JOIN b ON a.x = b.x LEFT OUTER JOIN c ON b.y = c.y`)
	j, ok := stmt.From[0].(*JoinExpr)
	if !ok || j.Type != JoinLeft {
		t.Fatalf("outer join = %#v", stmt.From[0])
	}
	inner, ok := j.Left.(*JoinExpr)
	if !ok || inner.Type != JoinInner {
		t.Fatalf("inner join = %#v", j.Left)
	}
	roundTrip(t, "SELECT * FROM a CROSS JOIN b")
	roundTrip(t, "SELECT * FROM a INNER JOIN b ON a.x = b.x")
	roundTrip(t, "SELECT * FROM a RIGHT JOIN b ON a.x = b.x")
	roundTrip(t, "SELECT * FROM a FULL OUTER JOIN b ON a.x = b.x")
}

func TestParseMissingOnError(t *testing.T) {
	if _, err := Parse("SELECT * FROM a JOIN b"); err == nil {
		t.Fatal("expected error for join without ON")
	}
}

func TestParsePredicates(t *testing.T) {
	stmt := roundTrip(t, `SELECT a FROM t WHERE a IN (1, 2, 3) AND b NOT IN (4) AND c BETWEEN 1 AND 10 AND d NOT BETWEEN 2 AND 3 AND e LIKE 'x%' AND f NOT LIKE '%y' AND g IS NULL AND h IS NOT NULL`)
	count := 0
	WalkExpr(stmt.Where, func(e Expr) bool {
		switch e.(type) {
		case *InExpr, *BetweenExpr, *LikeExpr, *IsNullExpr:
			count++
		}
		return true
	})
	if count != 8 {
		t.Fatalf("predicate count = %d, want 8", count)
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt := roundTrip(t, "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or, ok := stmt.Where.(*BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top op should be OR: %#v", stmt.Where)
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("right of OR should be AND: %#v", or.R)
	}

	stmt = roundTrip(t, "SELECT a + b * c FROM t")
	add := stmt.Items[0].Expr.(*BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("top arith should be +: %#v", add)
	}
	if mul := add.R.(*BinaryExpr); mul.Op != "*" {
		t.Fatalf("right should be *: %#v", add.R)
	}
}

func TestParseNotPrecedence(t *testing.T) {
	stmt := roundTrip(t, "SELECT a FROM t WHERE NOT a = 1 AND b = 2")
	and := stmt.Where.(*BinaryExpr)
	if and.Op != "AND" {
		t.Fatalf("top should be AND, got %s", and.Op)
	}
	if _, ok := and.L.(*UnaryExpr); !ok {
		t.Fatalf("left should be NOT expr: %#v", and.L)
	}
}

func TestParseSubqueries(t *testing.T) {
	stmt := roundTrip(t, `SELECT a FROM t WHERE x IN (SELECT y FROM u) AND EXISTS (SELECT 1 FROM v WHERE v.k = t.k) AND z > (SELECT AVG(w) FROM r)`)
	var subs int
	WalkStatement(stmt, func(*SelectStmt) { subs++ })
	if subs != 4 { // outer + 3 subqueries
		t.Fatalf("statements = %d, want 4", subs)
	}
}

func TestParseQuantified(t *testing.T) {
	stmt := roundTrip(t, "SELECT a FROM t WHERE x > ALL (SELECT y FROM u)")
	q, ok := stmt.Where.(*QuantifiedExpr)
	if !ok || q.Quantifier != "ALL" || q.Op != ">" {
		t.Fatalf("quantified = %#v", stmt.Where)
	}
}

func TestParseDerivedTable(t *testing.T) {
	stmt := roundTrip(t, "SELECT s.a FROM (SELECT a FROM t WHERE b = 1) s WHERE s.a > 0")
	d, ok := stmt.From[0].(*SubqueryRef)
	if !ok || d.Alias != "s" {
		t.Fatalf("derived = %#v", stmt.From[0])
	}
}

func TestParseCTE(t *testing.T) {
	stmt := roundTrip(t, `WITH r (a, b) AS (SELECT x, y FROM t), s AS (SELECT z FROM u) SELECT r.a FROM r, s WHERE r.a = s.z`)
	if len(stmt.With) != 2 {
		t.Fatalf("ctes = %d", len(stmt.With))
	}
	if stmt.With[0].Name != "r" || len(stmt.With[0].Columns) != 2 {
		t.Fatalf("cte = %+v", stmt.With[0])
	}
	bts := BaseTables(stmt)
	for _, bt := range bts {
		if bt.Name == "r" || bt.Name == "s" {
			t.Fatalf("CTE name %q leaked into base tables", bt.Name)
		}
	}
}

func TestParseGroupHavingOrder(t *testing.T) {
	stmt := roundTrip(t, `SELECT a, SUM(b) AS s FROM t GROUP BY a HAVING SUM(b) > 10 ORDER BY s DESC, a ASC LIMIT 5 OFFSET 2`)
	if len(stmt.GroupBy) != 1 || stmt.Having == nil {
		t.Fatal("group/having missing")
	}
	if len(stmt.OrderBy) != 2 || !stmt.OrderBy[0].Desc || stmt.OrderBy[1].Desc {
		t.Fatalf("order = %+v", stmt.OrderBy)
	}
	if stmt.Limit == nil || *stmt.Limit != 5 || stmt.Offset == nil || *stmt.Offset != 2 {
		t.Fatal("limit/offset missing")
	}
}

func TestParseTopAndDistinct(t *testing.T) {
	stmt := roundTrip(t, "SELECT DISTINCT TOP 10 a FROM t")
	if !stmt.Distinct || stmt.Top == nil || *stmt.Top != 10 {
		t.Fatalf("stmt = %+v", stmt)
	}
}

func TestParseAggregates(t *testing.T) {
	stmt := roundTrip(t, "SELECT COUNT(*), COUNT(DISTINCT a), SUM(b * c), AVG(d) FROM t")
	fc := stmt.Items[0].Expr.(*FuncCall)
	if !fc.Star || fc.Name != "COUNT" {
		t.Fatalf("count(*) = %+v", fc)
	}
	fc2 := stmt.Items[1].Expr.(*FuncCall)
	if !fc2.Distinct {
		t.Fatal("count distinct flag lost")
	}
}

func TestParseCase(t *testing.T) {
	roundTrip(t, `SELECT CASE WHEN a > 1 THEN 'hi' WHEN a > 0 THEN 'mid' ELSE 'lo' END FROM t`)
	stmt := roundTrip(t, `SELECT CASE a WHEN 1 THEN 'one' END FROM t`)
	ce := stmt.Items[0].Expr.(*CaseExpr)
	if ce.Operand == nil {
		t.Fatal("simple CASE operand missing")
	}
	if _, err := Parse("SELECT CASE END FROM t"); err == nil {
		t.Fatal("expected error for empty CASE")
	}
}

func TestParseCastIntervalExtractSubstring(t *testing.T) {
	roundTrip(t, "SELECT CAST(a AS DECIMAL(12,2)) FROM t")
	stmt := roundTrip(t, "SELECT a FROM t WHERE d < '1998-12-01' AND d >= DATE_SUB('1998-12-01') AND e < INTERVAL '3' month")
	_ = stmt
	stmt = roundTrip(t, "SELECT EXTRACT(year FROM o_orderdate) FROM orders")
	fc := stmt.Items[0].Expr.(*FuncCall)
	if fc.Name != "EXTRACT_YEAR" {
		t.Fatalf("extract = %+v", fc)
	}
	roundTrip(t, "SELECT SUBSTRING(c_phone FROM 1 FOR 2) FROM customer")
	roundTrip(t, "SELECT SUBSTRING(c_phone, 1, 2) FROM customer")
}

func TestParseUnion(t *testing.T) {
	stmt := roundTrip(t, "SELECT a FROM t UNION ALL SELECT b FROM u")
	if stmt.UnionAll == nil || stmt.UnionDedup {
		t.Fatal("union all missing")
	}
	stmt = roundTrip(t, "SELECT a FROM t UNION SELECT b FROM u")
	if stmt.UnionAll == nil || !stmt.UnionDedup {
		t.Fatal("union dedup missing")
	}
}

func TestParseParams(t *testing.T) {
	stmt := roundTrip(t, "SELECT a FROM t WHERE b = ? AND c > ?")
	params := 0
	WalkExpr(stmt.Where, func(e Expr) bool {
		if l, ok := e.(*Literal); ok && l.Kind == LitParam {
			params++
		}
		return true
	})
	if params != 2 {
		t.Fatalf("params = %d", params)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP a",
		"SELECT a FROM t ORDER a",
		"SELECT a FROM t WHERE a NOT 5",
		"SELECT a FROM t WHERE a IS 5",
		"SELECT a FROM t extra garbage ,",
		"SELECT a FROM t WHERE a BETWEEN 1",
		"SELECT CAST(a to int) FROM t",
		"SELECT a b c FROM t",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("expected parse error for %q", sql)
		}
	}
}

func TestParseTPCHStyleQueries(t *testing.T) {
	queries := []string{
		// Q1-style
		`SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
			SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, COUNT(*) AS count_order
		 FROM lineitem WHERE l_shipdate <= '1998-09-02'
		 GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`,
		// Q3-style
		`SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, o_orderdate, o_shippriority
		 FROM customer, orders, lineitem
		 WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND l_orderkey = o_orderkey
		   AND o_orderdate < '1995-03-15' AND l_shipdate > '1995-03-15'
		 GROUP BY l_orderkey, o_orderdate, o_shippriority
		 ORDER BY revenue DESC, o_orderdate LIMIT 10`,
		// Q4-style with EXISTS
		`SELECT o_orderpriority, COUNT(*) AS order_count FROM orders
		 WHERE o_orderdate >= '1993-07-01' AND o_orderdate < '1993-10-01'
		   AND EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)
		 GROUP BY o_orderpriority ORDER BY o_orderpriority`,
		// Q15-style with CTE
		`WITH revenue (supplier_no, total_revenue) AS (
			SELECT l_suppkey, SUM(l_extendedprice * (1 - l_discount)) FROM lineitem
			WHERE l_shipdate >= '1996-01-01' GROUP BY l_suppkey)
		 SELECT s_suppkey, s_name, total_revenue FROM supplier, revenue
		 WHERE s_suppkey = supplier_no AND total_revenue = (SELECT MAX(total_revenue) FROM revenue)
		 ORDER BY s_suppkey`,
	}
	for i, q := range queries {
		stmt := roundTrip(t, q)
		if len(BaseTables(stmt)) == 0 {
			t.Fatalf("query %d: no base tables found", i)
		}
	}
}

// TestParseRejectsDeepNesting: nesting past maxDepth is a positioned
// error. Without the bound, 10⁶ nested parentheses and 1.5×10⁶ nested
// derived tables each overflow the goroutine stack, which is fatal. The
// latter tokenizes to over a gigabyte, and the bound rejects at maxDepth
// whatever the input's length, so 10⁵ levels take the same path.
func TestParseRejectsDeepNesting(t *testing.T) {
	const parens, subqueries = 1_000_000, 100_000
	for name, sql := range map[string]string{
		"parentheses": "SELECT a FROM t WHERE x = " + strings.Repeat("(", parens) + "1" + strings.Repeat(")", parens),
		"subqueries":  strings.Repeat("SELECT a FROM (", subqueries) + "SELECT a FROM t" + strings.Repeat(") s", subqueries),
	} {
		_, err := Parse(sql)
		if err == nil || !strings.Contains(err.Error(), "nesting deeper than") || !strings.Contains(err.Error(), "(at offset ") {
			t.Errorf("%s: err = %v, want a positioned nesting error", name, err)
		}
	}

	// 100 levels of every nesting construct still parse and round-trip,
	// and so do chains of one prefix operator close to the bound: they
	// print flat, so the printed text nests no deeper than its source.
	const n, chain = 100, maxDepth - 10
	for _, sql := range []string{
		"SELECT a FROM t WHERE x = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n),
		strings.Repeat("SELECT a FROM (", n) + "SELECT a FROM t" + strings.Repeat(") s", n),
		"SELECT a FROM t WHERE x IN " + strings.Repeat("(SELECT a FROM t WHERE x IN ", n) + "(1)" + strings.Repeat(")", n),
		"SELECT " + strings.Repeat("ABS(", n) + "a" + strings.Repeat(")", n) + " FROM t",
		"SELECT a FROM " + strings.Repeat("(", n) + "t JOIN u ON t.a = u.a" + strings.Repeat(")", n),
		"SELECT a FROM t" + strings.Repeat(" UNION ALL SELECT a FROM t", n),
		"SELECT a FROM t WHERE x = 1 + " + strings.Repeat("NOT ", n) + "1",
		"SELECT a FROM t WHERE " + strings.Repeat("NOT ", chain) + "x",
		"SELECT " + strings.Repeat("- ", chain) + "a FROM t",
	} {
		roundTrip(t, sql)
	}
}
