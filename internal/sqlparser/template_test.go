package sqlparser

import (
	"reflect"
	"testing"
)

// everyClause has a literal in every place the parser reads one: a CTE,
// the SELECT list, a derived table, a join condition, WHERE (IN, BETWEEN,
// LIKE, CASE, CAST, INTERVAL, a parameter, a scalar and a quantified
// subquery), GROUP BY, HAVING, a UNION arm and ORDER BY, beside TOP,
// LIMIT, OFFSET and a CAST precision, which are structural.
const everyClause = `WITH c AS (SELECT a FROM t WHERE b = 1)
SELECT TOP 5 x, 'lit', CAST(y AS DECIMAL(15,2)) FROM (SELECT a FROM u WHERE v > 2.5) d
JOIN w ON w.k = d.a AND w.z <> 'q'
WHERE x IN (3, 4) AND y BETWEEN -5 AND 6 AND z LIKE 'a%' AND NOT (e = ?)
  AND f = CASE WHEN g > 7 THEN 'h' ELSE NULL END AND h < '1995-01-01' + INTERVAL '3' MONTH
  AND i = (SELECT MAX(j) FROM s WHERE s.k = 8) AND l > ANY (SELECT m FROM r WHERE n = 9)
GROUP BY x, 10 HAVING COUNT(*) > 11
UNION ALL SELECT p, 'x', q FROM o WHERE o.r = 12
ORDER BY 1 LIMIT 100 OFFSET 13`

func mustTokenize(t *testing.T, sql string) []Token {
	t.Helper()
	toks, err := Tokenize(sql)
	if err != nil {
		t.Fatal(err)
	}
	return toks
}

// TestTemplateBind binds statements to templates of their shape, or
// nearly their shape. A bound statement must equal the parse of its text;
// a statement that is not of the template's shape, or that differs in a
// structural literal or holds a number that does not convert, must not
// bind.
func TestTemplateBind(t *testing.T) {
	cases := []struct {
		tmpl, sql string
		bind      bool
	}{
		{everyClause, everyClause, true},
		{everyClause, `WITH c AS (SELECT a FROM t WHERE b = 101)
SELECT TOP 5 x, 'other', CAST(y AS DECIMAL(15,2)) FROM (SELECT a FROM u WHERE v > 102) d
JOIN w ON w.k = d.a AND w.z <> 'r'
WHERE x IN (103, 104) AND y BETWEEN -105 AND 106 AND z LIKE 'b' AND NOT (e = ?)
  AND f = CASE WHEN g > 107 THEN 'hh' ELSE NULL END AND h < 'soon' + INTERVAL '30' MONTH
  AND i = (SELECT MAX(j) FROM s WHERE s.k = 108) AND l > ANY (SELECT m FROM r WHERE n = 109)
GROUP BY x, 110 HAVING COUNT(*) > 111
UNION ALL SELECT p, 'y', q FROM o WHERE o.r = 112
ORDER BY 1 LIMIT 100 OFFSET 13`, true},
		{"SELECT a FROM t WHERE b = 1", "select a from t where b = 2.0e0", true},
		{"SELECT a FROM t WHERE b = 1", "SELECT A FROM t WHERE b = 2", false},
		{"SELECT a FROM t WHERE b = 1", "SELECT a FROM t WHERE b = '1'", false},
		{"SELECT a FROM t WHERE b <> 1", "SELECT a FROM t WHERE b != 1", false},
		{"SELECT a FROM t WHERE b = 1", "SELECT a FROM t WHERE b = 1 + 1", false},
		{"SELECT a FROM t WHERE b = 1", "SELECT a FROM t WHERE b = 1e999", false},
		{"SELECT a FROM t LIMIT 1", "SELECT a FROM t LIMIT 2", false},
		{"SELECT TOP 1 a FROM t", "SELECT TOP 2 a FROM t", false},
		{"SELECT CAST(a AS DECIMAL(15,2)) FROM t", "SELECT CAST(a AS DECIMAL(12,2)) FROM t", false},
	}
	for _, c := range cases {
		tmpl, err := ParseTemplate(c.tmpl, mustTokenize(t, c.tmpl))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tmpl.Stmt(), MustParse(c.tmpl)) {
			t.Fatalf("template of %q differs from its parse", c.tmpl)
		}
		stmt, lits, ok := tmpl.Bind(mustTokenize(t, c.sql))
		if ok != c.bind {
			t.Fatalf("Bind(%q) to %q: ok %v, want %v", c.sql, c.tmpl, ok, c.bind)
		}
		if !ok {
			continue
		}
		if want := MustParse(c.sql); !reflect.DeepEqual(stmt, want) {
			t.Fatalf("Bind(%q) = %s, want %s", c.sql, stmt.SQL(), want.SQL())
		}
		if len(lits) != len(tmpl.Literals()) {
			t.Fatalf("Bind(%q): %d literals, want %d", c.sql, len(lits), len(tmpl.Literals()))
		}
	}
}

// TestTemplateBindShares: binding copies only the paths to literals whose
// values changed. Identical literals bind to the template's statement
// itself; a changed WHERE literal leaves the SELECT list and FROM shared.
func TestTemplateBindShares(t *testing.T) {
	tmpl, err := ParseTemplate(everyClause, mustTokenize(t, everyClause))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmpl.Literals()) != 21 || len(tmpl.fixed) != 5 {
		t.Fatalf("%d literal slots and %d structural literals, want 21 and 5", len(tmpl.Literals()), len(tmpl.fixed))
	}
	stmt, lits, ok := tmpl.Bind(mustTokenize(t, everyClause))
	if !ok || stmt != tmpl.Stmt() || !reflect.DeepEqual(lits, tmpl.Literals()) {
		t.Fatal("binding the template's own tokens copied its statement")
	}
	const other = "SELECT a, 'x' FROM t JOIN u ON t.k = u.k WHERE b = 1 AND c = 2"
	tmpl, err = ParseTemplate(other, mustTokenize(t, other))
	if err != nil {
		t.Fatal(err)
	}
	stmt, lits, ok = tmpl.Bind(mustTokenize(t, "SELECT a, 'x' FROM t JOIN u ON t.k = u.k WHERE b = 1 AND c = 3"))
	old := tmpl.Stmt()
	if !ok || stmt == old {
		t.Fatal("a changed literal did not bind to a new statement")
	}
	if &stmt.Items[0] != &old.Items[0] || stmt.From[0] != old.From[0] {
		t.Error("the SELECT list or FROM was copied")
	}
	where, oldWhere := stmt.Where.(*BinaryExpr), old.Where.(*BinaryExpr)
	if where == oldWhere || where.L != oldWhere.L || where.R == oldWhere.R {
		t.Error("WHERE should be copied down to c = 3 only")
	}
	if lits[0] != tmpl.Literals()[0] || lits[2] == tmpl.Literals()[2] || lits[2].Num != 3 {
		t.Errorf("literals %v, want the template's but a new third", lits)
	}
}

// TestSelectItemStarNeedsPunctuation: "t.*" is a dot and a star, not a
// string literal that happens to read "." or "*".
func TestSelectItemStarNeedsPunctuation(t *testing.T) {
	for _, sql := range []string{"SELECT t.'*' FROM t", "SELECT t '.' * FROM t"} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded", sql)
		}
	}
	if s := MustParse("SELECT t.* FROM t"); !s.Items[0].Star || s.Items[0].Table != "t" {
		t.Errorf("t.* parsed to %+v", s.Items[0])
	}
}
