package sqlparser

import "testing"

// mustParse parses sql, failing the test on a parse error.
func mustParse(t testing.TB, sql string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return stmt
}

func TestWalkExprStopsDescent(t *testing.T) {
	stmt := mustParse(t, "SELECT a + b * c FROM t WHERE x = 1 AND y = 2")
	total := 0
	WalkExpr(stmt.Where, func(Expr) bool { total++; return true })
	if total < 7 { // AND, two comparisons, two cols, two literals
		t.Fatalf("walked %d nodes", total)
	}
	stopped := 0
	WalkExpr(stmt.Where, func(e Expr) bool {
		stopped++
		_, isBin := e.(*BinaryExpr)
		return !isBin // stop below any binary node
	})
	if stopped != 1 {
		t.Fatalf("early stop visited %d nodes", stopped)
	}
}

func TestWalkExprNil(t *testing.T) {
	WalkExpr(nil, func(Expr) bool { t.Fatal("should not visit"); return true })
}

func TestExprSubqueriesKinds(t *testing.T) {
	stmt := mustParse(t, `SELECT (SELECT MAX(x) FROM u) FROM t
		WHERE a IN (SELECT b FROM v)
		  AND EXISTS (SELECT 1 FROM w)
		  AND c > ALL (SELECT d FROM z)`)
	count := 0
	for _, e := range statementExprs(stmt) {
		count += len(ExprSubqueries(e))
	}
	if count != 4 {
		t.Fatalf("subqueries = %d, want 4", count)
	}
}

func TestExprSubqueriesDoesNotRecurse(t *testing.T) {
	stmt := mustParse(t, `SELECT a FROM t WHERE x IN (SELECT y FROM u WHERE z IN (SELECT k FROM v))`)
	subs := ExprSubqueries(stmt.Where)
	if len(subs) != 1 {
		t.Fatalf("top-level subqueries = %d, want 1 (no recursion)", len(subs))
	}
}

func TestWalkStatementCountsAllBlocks(t *testing.T) {
	stmt := mustParse(t, `WITH c AS (SELECT x FROM a)
		SELECT (SELECT MAX(y) FROM b) FROM c, (SELECT z FROM d) dd
		WHERE EXISTS (SELECT 1 FROM e)
		UNION ALL SELECT q FROM f`)
	n := 0
	WalkStatement(stmt, func(*SelectStmt) { n++ })
	// outer + cte + scalar + derived + exists + union = 6
	if n != 6 {
		t.Fatalf("blocks = %d, want 6", n)
	}
}

func TestWalkStatementJoinOnSubquery(t *testing.T) {
	stmt := mustParse(t, `SELECT 1 FROM a JOIN b ON a.x = (SELECT MAX(y) FROM c)`)
	n := 0
	WalkStatement(stmt, func(*SelectStmt) { n++ })
	if n != 2 {
		t.Fatalf("blocks = %d, want 2", n)
	}
}

func TestBaseTablesDedupAndCTEExclusion(t *testing.T) {
	stmt := mustParse(t, `WITH c AS (SELECT x FROM base1)
		SELECT 1 FROM c, base2 b1, base2 b2 WHERE b1.k = b2.k`)
	bts := BaseTables(stmt)
	names := map[string]int{}
	for _, bt := range bts {
		names[lower(bt.Name)]++
	}
	if names["c"] != 0 {
		t.Fatal("CTE leaked into base tables")
	}
	if names["base1"] != 1 || names["base2"] != 2 {
		t.Fatalf("base tables = %v", names)
	}
}

func TestJoinTypeStrings(t *testing.T) {
	pairs := map[JoinType]string{
		JoinInner: "JOIN", JoinLeft: "LEFT JOIN", JoinRight: "RIGHT JOIN",
		JoinFull: "FULL JOIN", JoinCross: "CROSS JOIN", JoinType(9): "JOIN",
	}
	for jt, want := range pairs {
		if jt.String() != want {
			t.Fatalf("%v = %q, want %q", jt, jt.String(), want)
		}
	}
}

func TestSQLRenderingEdgeCases(t *testing.T) {
	cases := []string{
		"SELECT DISTINCT a FROM t",
		"SELECT * FROM (SELECT a FROM t) s",
		"SELECT a FROM t WHERE b IS NOT NULL",
		"SELECT -a FROM t",
		"SELECT a || b FROM t",
		"SELECT CAST(a AS INT) FROM t",
	}
	for _, sql := range cases {
		stmt := mustParse(t, sql)
		again := mustParse(t, stmt.SQL())
		if stmt.SQL() != again.SQL() {
			t.Fatalf("unstable round trip for %q", sql)
		}
	}
}
