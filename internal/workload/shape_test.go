package workload_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"isum/internal/catalog"
	"isum/internal/sqlparser"
	"isum/internal/workload"
)

// sameLoad fails unless Load and New of sqls build what the serial
// references build from them, or fail with the reference's error text.
func sameLoad(t *testing.T, cat *catalog.Catalog, sqls []string) {
	t.Helper()
	entries := make([]workload.LogEntry, len(sqls))
	for i, sql := range sqls {
		entries[i] = workload.LogEntry{SQL: sql, Cost: float64(i + 1)}
	}
	data, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	want, wantErr := serialLoad(cat, bytes.NewReader(data))
	got, gotErr := workload.Load(cat, bytes.NewReader(data))
	sameResult(t, "Load", got, gotErr, want, wantErr)
	want, wantErr = serialNew(cat, sqls)
	got, gotErr = workload.New(cat, sqls)
	sameResult(t, "New", got, gotErr, want, wantErr)
}

func sameResult(t *testing.T, what string, got *workload.Workload, gotErr error, want *workload.Workload, wantErr error) {
	t.Helper()
	switch {
	case wantErr != nil:
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, want %v", what, gotErr, wantErr)
		}
	case gotErr != nil:
		t.Fatalf("%s: %v", what, gotErr)
	default:
		sameWorkload(t, got, want)
	}
}

// TestLoadShapeEdgeCases loads logs whose two entries have one shape, or
// nearly: they differ in a literal the parse or the analysis treats
// specially. Each must load exactly as the serial reference loads it, at
// every worker count, error text included.
func TestLoadShapeEdgeCases(t *testing.T) {
	cat := generators()[0].Cat // TPC-H
	cases := []struct {
		name string
		sqls []string
		err  string // a substring the reference's error must have, if any
	}{
		{"literal kind", []string{
			"SELECT o_orderkey FROM orders WHERE o_custkey = 5",
			"SELECT o_orderkey FROM orders WHERE o_custkey = '5'"}, ""},
		{"identifier case", []string{
			"SELECT o_orderkey FROM orders WHERE o_custkey = 5",
			"SELECT O_OrderKey FROM ORDERS WHERE o_CUSTKEY = 7"}, ""},
		{"equal values, other texts", []string{
			"SELECT o_orderkey FROM orders WHERE o_custkey = 5 AND o_totalprice > 100",
			"SELECT o_orderkey FROM orders WHERE o_custkey = 5.0 AND o_totalprice > 1e2"}, ""},
		{"LIMIT", []string{
			"SELECT o_orderkey FROM orders WHERE o_custkey = 5 ORDER BY o_orderkey LIMIT 10",
			"SELECT o_orderkey FROM orders WHERE o_custkey = 6 ORDER BY o_orderkey LIMIT 20"}, ""},
		{"LIMIT and OFFSET", []string{
			"SELECT o_orderkey FROM orders WHERE o_custkey = 5 LIMIT 10 OFFSET 5",
			"SELECT o_orderkey FROM orders WHERE o_custkey = 5 LIMIT 10 OFFSET 6"}, ""},
		{"TOP", []string{
			"SELECT TOP 10 o_orderkey FROM orders WHERE o_custkey = 5",
			"SELECT TOP 20 o_orderkey FROM orders WHERE o_custkey = 6"}, ""},
		{"CAST precision", []string{
			"SELECT CAST(o_totalprice AS DECIMAL(15,2)) FROM orders WHERE o_totalprice > 5",
			"SELECT CAST(o_totalprice AS DECIMAL(12,2)) FROM orders WHERE o_totalprice > 6"}, ""},
		{"INTERVAL", []string{
			"SELECT l_orderkey FROM lineitem WHERE l_shipdate <= '1998-12-01' - INTERVAL '3' DAY",
			"SELECT l_orderkey FROM lineitem WHERE l_shipdate <= '1998-12-01' - INTERVAL '90' DAY"}, ""},
		{"LIKE wildcard", []string{
			"SELECT p_partkey FROM part WHERE p_name LIKE '%green%' AND p_size = 15",
			"SELECT p_partkey FROM part WHERE p_name LIKE 'green' AND p_size = 15"}, ""},
		{"NOT LIKE prefix", []string{
			"SELECT p_partkey FROM part WHERE p_type NOT LIKE 'MEDIUM POLISHED%'",
			"SELECT p_partkey FROM part WHERE p_type NOT LIKE '_EDIUM'"}, ""},
		{"date and non-date string", []string{
			"SELECT o_orderkey FROM orders WHERE o_orderdate >= '1995-01-01' AND o_orderdate < '1995-04-01'",
			"SELECT o_orderkey FROM orders WHERE o_orderdate >= 'soon' AND o_orderdate < '1995-04-01'"}, ""},
		{"BETWEEN, IN, NULL and a parameter", []string{
			"SELECT o_orderkey FROM orders WHERE o_totalprice BETWEEN 10 AND 20 AND o_custkey IN (1, 2, ?) AND o_comment IS NOT NULL AND o_orderstatus <> NULL",
			"SELECT o_orderkey FROM orders WHERE o_totalprice BETWEEN -20 AND 2e4 AND o_custkey IN (3, 2, ?) AND o_comment IS NOT NULL AND o_orderstatus <> NULL"}, ""},
		{"literals in nested blocks", []string{
			"WITH r AS (SELECT l_orderkey FROM lineitem WHERE l_quantity > 5) SELECT o_orderkey, CASE WHEN o_totalprice > 1 THEN 'a' ELSE 'b' END FROM orders WHERE o_orderkey IN (SELECT l_orderkey FROM r) AND EXISTS (SELECT 1 FROM customer WHERE c_custkey = o_custkey AND c_acctbal > 7) UNION ALL SELECT l_orderkey, 'c' FROM lineitem WHERE l_discount = 0.05 ORDER BY 1",
			"WITH r AS (SELECT l_orderkey FROM lineitem WHERE l_quantity > 6) SELECT o_orderkey, CASE WHEN o_totalprice > 1 THEN 'x' ELSE 'b' END FROM orders WHERE o_orderkey IN (SELECT l_orderkey FROM r) AND EXISTS (SELECT 1 FROM customer WHERE c_custkey = o_custkey AND c_acctbal > 9) UNION ALL SELECT l_orderkey, 'c' FROM lineitem WHERE l_discount = 0.07 ORDER BY 2"}, ""},
		{"a string where the parser wants a dot", []string{
			"SELECT o.'*' FROM orders o WHERE o_custkey = 5",
			"SELECT o.'x' FROM orders o WHERE o_custkey = 5"}, "expected identifier"},
		// The repeat's error names its own offset: its whitespace differs
		// from the first instance's.
		{"number out of range in a repeat", []string{
			"SELECT o_orderkey FROM orders WHERE o_totalprice > 1 AND o_custkey = 2",
			"SELECT  o_orderkey  FROM orders WHERE o_totalprice >   1e999 AND o_custkey = 2"}, `bad number "1e999"`},
		{"first instance fails, repeat parses", []string{
			"SELECT o_orderkey FROM orders WHERE o_totalprice > 1e999 AND o_custkey = 2",
			"SELECT o_orderkey FROM orders WHERE o_totalprice > 1 AND o_custkey = 2"}, `bad number "1e999"`},
		{"LIMIT out of range in a repeat", []string{
			"SELECT o_orderkey FROM orders LIMIT 10",
			"SELECT o_orderkey FROM orders LIMIT 1e999"}, `bad integer "1e999"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.err != "" {
				if _, err := serialNew(cat, c.sqls); err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("reference error %v, want one with %q", err, c.err)
				}
			}
			atProcs(t, []int{1, 2, 4}, func(t *testing.T) {
				// Three instances, so that the repeat has a repeat too.
				sameLoad(t, cat, []string{c.sqls[0], c.sqls[1], c.sqls[0]})
				sameLoad(t, cat, []string{c.sqls[1], c.sqls[0]})
			})
		})
	}
}

// TestLoadSharesShapeStructure pins that the shape cache runs: the second
// instance of a TPC-H template, with other literal values, is bound to
// the first one's template rather than parsed and analysed afresh, so the
// two share what does not depend on a literal.
func TestLoadSharesShapeStructure(t *testing.T) {
	g := generators()[0]
	w, err := g.Workload(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]*workload.Query{}
	var a, b *workload.Query
	for _, q := range w.Queries {
		if p := first[q.TemplateID]; p == nil {
			first[q.TemplateID] = q
		} else if a == nil && p.Text != q.Text {
			a, b = p, q
		}
	}
	if a == nil {
		t.Fatal("no template with two distinct instances")
	}
	got, err := workload.New(g.Cat, []string{a.Text, b.Text})
	if err != nil {
		t.Fatal(err)
	}
	q0, q1 := got.Queries[0], got.Queries[1]
	if q0.Stmt == q1.Stmt {
		t.Fatal("instances with other literals share one statement")
	}
	if len(q0.Info.Tables) == 0 || &q0.Info.Tables[0] != &q1.Info.Tables[0] {
		t.Error("the second instance's Info.Tables is not the first one's")
	}
	if q0.TemplateID != q1.TemplateID {
		t.Errorf("templates %q and %q differ", q0.TemplateID, q1.TemplateID)
	}
}

// TestResolveUnqualifiedInFromOrder: an unqualified column that two
// tables in scope share resolves to the first of them in FROM order, on
// every analysis.
func TestResolveUnqualifiedInFromOrder(t *testing.T) {
	cat := generators()[3].Cat // Real-M
	for _, table := range []string{"t017", "t022"} {
		if tb := cat.Table(table); tb == nil || tb.Column("fk_t014") == nil {
			t.Fatalf("Real-M's %s has no fk_t014: the query is not ambiguous", table)
		}
	}
	for _, c := range []struct{ sql, want string }{
		{"SELECT * FROM t017, t022 WHERE fk_t014 = 5", "t017"},
		{"SELECT * FROM t022, t017 WHERE fk_t014 = 5", "t022"},
		{"SELECT * FROM t022 a JOIN t017 b ON a.id = b.id WHERE fk_t014 = 5", "t022"},
	} {
		stmt := sqlparser.MustParse(c.sql)
		for i := 0; i < 50; i++ {
			info, err := workload.Analyze(cat, stmt)
			if err != nil {
				t.Fatal(err)
			}
			if len(info.Filters) != 1 || info.Filters[0].Table != c.want {
				t.Fatalf("%s: analysis %d resolved the filter to %+v, want %s", c.sql, i, info.Filters, c.want)
			}
		}
	}
}

// templateStatement is one instance of a generator's template, with the
// generator's catalog.
type templateStatement struct {
	cat *catalog.Catalog
	sql string
}

// templateStatements are one instance of every template of every
// generator: the statements FuzzLoadTemplates varies.
var templateStatements = sync.OnceValue(func() []templateStatement {
	var out []templateStatement
	for _, g := range generators() {
		w, err := g.WorkloadPerTemplate(1, 1)
		if err != nil {
			panic(err)
		}
		for _, q := range w.Queries {
			out = append(out, templateStatement{g.Cat, q.Text})
		}
	}
	return out
})

// FuzzLoadTemplates replaces the source of one literal token of a
// generator statement with fuzzer bytes — quoted, for a string literal —
// and loads the pair [original, variant]. Whether the variant keeps the
// shape, changes it or fails, Load must build what the serial reference
// builds, statement and analysis alike, or fail with its error text.
func FuzzLoadTemplates(f *testing.F) {
	f.Add(uint(0), uint(0), "7")
	f.Add(uint(3), uint(1), "1e999")
	f.Add(uint(5), uint(0), "1995-03-15")
	f.Add(uint(7), uint(2), "%forest%")
	f.Add(uint(11), uint(0), "0.0")
	f.Add(uint(40), uint(3), "x' OR 'a")
	f.Add(uint(90), uint(1), "1 LIMIT 5")
	f.Fuzz(func(t *testing.T, stmt, lit uint, text string) {
		all := templateStatements()
		ts := all[stmt%uint(len(all))]
		sql := ts.sql
		toks, err := sqlparser.Tokenize(sql)
		if err != nil {
			t.Fatal(err)
		}
		var lits []sqlparser.Token
		for _, tok := range toks {
			if tok.Kind == sqlparser.TokenNumber || tok.Kind == sqlparser.TokenString {
				lits = append(lits, tok)
			}
		}
		if len(lits) == 0 {
			return
		}
		tok := lits[lit%uint(len(lits))]
		end := tok.Pos + len(tok.Text)
		if tok.Kind == sqlparser.TokenString {
			end = stringEnd(sql, tok.Pos)
			text = "'" + strings.ReplaceAll(text, "'", "''") + "'"
		}
		sameLoad(t, ts.cat, []string{sql, sql[:tok.Pos] + text + sql[end:]})
	})
}

// stringEnd returns the offset just past the string literal that opens at
// sql[pos], in which a doubled quote is an escaped quote.
func stringEnd(sql string, pos int) int {
	for i := pos + 1; i < len(sql); i++ {
		if sql[i] == '\'' {
			if i+1 < len(sql) && sql[i+1] == '\'' {
				i++
				continue
			}
			return i + 1
		}
	}
	return len(sql)
}
