package workload

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestNewWorkloadAndStats(t *testing.T) {
	cat := tpchMiniCatalog()
	w, err := New(cat, []string{
		"SELECT * FROM orders WHERE o_custkey = 1",
		"SELECT * FROM orders WHERE o_custkey = 2",
		"SELECT * FROM customer WHERE c_nationkey = 7",
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 3 {
		t.Fatalf("len = %d", w.Len())
	}
	if w.NumTemplates() != 2 {
		t.Fatalf("templates = %d", w.NumTemplates())
	}
	if w.TablesReferenced() != 2 {
		t.Fatalf("tables = %d", w.TablesReferenced())
	}
	counts := w.TemplateCounts()
	var maxCount int
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount != 2 {
		t.Fatalf("max template count = %d", maxCount)
	}
}

func TestNewWorkloadParseError(t *testing.T) {
	if _, err := New(tpchMiniCatalog(), []string{"NOT SQL"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestTotalCostAndSubset(t *testing.T) {
	cat := tpchMiniCatalog()
	w, err := New(cat, []string{
		"SELECT * FROM orders",
		"SELECT * FROM customer",
		"SELECT * FROM lineitem",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range w.Queries {
		q.Cost = float64((i + 1) * 100)
	}
	if w.TotalCost() != 600 {
		t.Fatalf("total = %f", w.TotalCost())
	}
	sub := w.Subset([]int{2, 0, 99})
	if sub.Len() != 2 || sub.Queries[0].ID != 2 {
		t.Fatalf("subset = %+v", sub.Queries)
	}
	if sub.TotalCost() != 400 {
		t.Fatalf("subset total = %f", sub.TotalCost())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cat := tpchMiniCatalog()
	w, err := New(cat, []string{
		"SELECT * FROM orders WHERE o_custkey = 1",
		"SELECT * FROM customer WHERE c_nationkey = 7",
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Queries[0].Cost = 123.5
	w.Queries[1].Cost = 7.25
	w.Queries[1].Weight = 3

	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	w2, err := Load(cat, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Len() != 2 {
		t.Fatalf("len = %d", w2.Len())
	}
	if w2.Queries[0].Cost != 123.5 || w2.Queries[1].Cost != 7.25 {
		t.Fatal("costs lost")
	}
	if w2.Queries[0].Weight != 1 || w2.Queries[1].Weight != 3 {
		t.Fatalf("weights = %f, %f", w2.Queries[0].Weight, w2.Queries[1].Weight)
	}
	if w2.Queries[0].Info == nil || len(w2.Queries[0].Info.Filters) != 1 {
		t.Fatal("loaded queries must be analysed")
	}
}

func TestLoadBadJSON(t *testing.T) {
	if _, err := Load(tpchMiniCatalog(), strings.NewReader("{not json")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := Load(tpchMiniCatalog(), strings.NewReader(`[{"sql":"BROKEN","cost":1}]`)); err == nil {
		t.Fatal("expected parse error")
	}
	// Anything but whitespace after the log's array is an error naming the
	// byte where it starts: two concatenated logs, or stray text.
	log := `[{"sql":"SELECT * FROM orders","cost":1}]`
	for _, c := range []struct {
		in   string
		byte int
	}{
		{log + log, len(log)},
		{log + " garbage", len(log) + 1},
		{log + "\n\t\r ]", len(log) + 4},
	} {
		_, err := Load(tpchMiniCatalog(), strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("at byte %d ", c.byte)) {
			t.Errorf("%q: error %v, want one naming byte %d", c.in, err, c.byte)
		}
	}
	w, err := Load(tpchMiniCatalog(), strings.NewReader(log+" \n\t\r"))
	if err != nil || w.Len() != 1 {
		t.Fatalf("trailing whitespace: %v", err)
	}
}

func TestPredKindString(t *testing.T) {
	kinds := []PredKind{PredEq, PredRange, PredIn, PredLike, PredNull}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "?" || seen[s] {
			t.Fatalf("bad kind string %q", s)
		}
		seen[s] = true
	}
	if PredKind(42).String() != "?" {
		t.Fatal("unknown kind should stringify to ?")
	}
}

func TestColumnUseKey(t *testing.T) {
	cu := ColumnUse{Table: "orders", Column: "o_custkey"}
	if cu.Key() != "orders.o_custkey" {
		t.Fatalf("key = %q", cu.Key())
	}
}

func TestSplitStatements(t *testing.T) {
	script := `
-- a comment; with a semicolon
SELECT * FROM orders WHERE o_custkey = 1;
/* block; comment */
SELECT 'a;b' FROM customer;  -- trailing
SELECT * FROM orders WHERE o_comment = 'it''s; fine';

SELECT 1`
	stmts, err := SplitStatements(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 4 {
		t.Fatalf("stmts = %d: %q", len(stmts), stmts)
	}
	if !strings.Contains(stmts[1], "'a;b'") {
		t.Fatalf("semicolon in string split: %q", stmts[1])
	}
	if !strings.Contains(stmts[2], "it''s; fine") {
		t.Fatalf("escaped quote mishandled: %q", stmts[2])
	}
}

func TestSplitStatementsUnterminated(t *testing.T) {
	cases := []struct {
		script   string
		wantMsg  string
		wantLine int
		wantCol  int
	}{
		{"SELECT 'abc", "unterminated string literal", 1, 8},
		{"SELECT 1;\nSELECT 'it''s open", "unterminated string literal", 2, 8},
		{"SELECT 1; /* never closed", "unterminated block comment", 1, 11},
		{"SELECT 1;\n/* open\nacross lines", "unterminated block comment", 2, 1},
		{"SELECT '", "unterminated string literal", 1, 8},
		{"/*", "unterminated block comment", 1, 1},
		{"/**", "unterminated block comment", 1, 1},
	}
	for _, c := range cases {
		_, err := SplitStatements(c.script)
		if err == nil {
			t.Fatalf("%q: expected error", c.script)
		}
		var se *ScriptError
		if !errors.As(err, &se) {
			t.Fatalf("%q: error %v is not a *ScriptError", c.script, err)
		}
		if !strings.Contains(se.Msg, c.wantMsg) {
			t.Errorf("%q: msg = %q, want %q", c.script, se.Msg, c.wantMsg)
		}
		if se.Line != c.wantLine || se.Column != c.wantCol {
			t.Errorf("%q: position = line %d col %d, want line %d col %d",
				c.script, se.Line, se.Column, c.wantLine, c.wantCol)
		}
		if se.Offset < 0 || se.Offset >= len(c.script) {
			t.Errorf("%q: offset %d out of range", c.script, se.Offset)
		}
	}
}

func TestLoadRejectsInvalidNumbers(t *testing.T) {
	cat := tpchMiniCatalog()
	cases := []struct {
		name string
		json string
		want string
	}{
		{"negative cost", `[{"sql":"SELECT * FROM orders","cost":-1}]`, "entry 0"},
		{"negative weight", `[{"sql":"SELECT * FROM orders","cost":1},{"sql":"SELECT * FROM orders","cost":1,"weight":-2}]`, "entry 1"},
	}
	for _, c := range cases {
		_, err := Load(cat, strings.NewReader(c.json))
		if err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q should name %s", c.name, err, c.want)
		}
	}
	// Zero cost and zero weight stay legal (weight 0 defaults to 1).
	w, err := Load(cat, strings.NewReader(`[{"sql":"SELECT * FROM orders","cost":0}]`))
	if err != nil {
		t.Fatal(err)
	}
	if w.Queries[0].Weight != 1 {
		t.Fatalf("weight = %f", w.Queries[0].Weight)
	}
}

func TestLoadSQLScript(t *testing.T) {
	cat := tpchMiniCatalog()
	script := `SELECT * FROM orders WHERE o_custkey = 1;
		SELECT c_custkey FROM customer WHERE c_nationkey = 2;`
	w, err := LoadSQLScript(cat, strings.NewReader(script))
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 2 {
		t.Fatalf("len = %d", w.Len())
	}
	if w.Queries[0].Info == nil {
		t.Fatal("script queries must be analysed")
	}
	if _, err := LoadSQLScript(cat, strings.NewReader("NOT SQL;")); err == nil {
		t.Fatal("bad statement should fail")
	}
}
