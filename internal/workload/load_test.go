package workload_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"isum/internal/benchmarks"
	"isum/internal/catalog"
	"isum/internal/sqlparser"
	"isum/internal/workload"
)

// serialLoad is the serial loader that the parallel one replaced, kept as
// its reference: decode the log, then for each entry in order validate
// it, parse, analyse and fingerprint its SQL; the first error wins.
func serialLoad(cat *catalog.Catalog, in io.Reader) (*workload.Workload, error) {
	var entries []workload.LogEntry
	if err := json.NewDecoder(in).Decode(&entries); err != nil {
		return nil, fmt.Errorf("workload: decoding log: %w", err)
	}
	w := &workload.Workload{Catalog: cat}
	for i, e := range entries {
		if math.IsNaN(e.Cost) || math.IsInf(e.Cost, 0) || e.Cost < 0 {
			return nil, fmt.Errorf("workload: entry %d: invalid cost %v (must be finite and >= 0)", i, e.Cost)
		}
		if math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) || e.Weight < 0 {
			return nil, fmt.Errorf("workload: entry %d: invalid weight %v (must be finite and >= 0)", i, e.Weight)
		}
		q, err := serialQuery(cat, i, e.SQL)
		if err != nil {
			return nil, fmt.Errorf("workload: entry %d: %w", i, err)
		}
		q.Cost = e.Cost
		if e.Weight > 0 {
			q.Weight = e.Weight
		}
		w.Queries = append(w.Queries, q)
	}
	return w, nil
}

// serialNew is the reference for New, in the same way.
func serialNew(cat *catalog.Catalog, sqls []string) (*workload.Workload, error) {
	w := &workload.Workload{Catalog: cat}
	for i, sql := range sqls {
		q, err := serialQuery(cat, i, sql)
		if err != nil {
			return nil, fmt.Errorf("workload: query %d: %w", i, err)
		}
		w.Queries = append(w.Queries, q)
	}
	return w, nil
}

// serialQuery is NewQuery as it was: lex and parse, analyse, then lex
// again for the fingerprint.
func serialQuery(cat *catalog.Catalog, id int, sql string) (*workload.Query, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	info, err := workload.Analyze(cat, stmt)
	if err != nil {
		return nil, err
	}
	return &workload.Query{
		ID:         id,
		Text:       sql,
		Stmt:       stmt,
		TemplateID: serialFingerprint(sql),
		Info:       info,
		Weight:     1,
	}, nil
}

// serialFingerprint is Fingerprint as it was, joining per-token strings.
func serialFingerprint(sql string) string {
	toks, err := sqlparser.Tokenize(sql)
	if err != nil {
		return strings.Join(strings.Fields(sql), " ")
	}
	parts := make([]string, 0, len(toks))
	for _, t := range toks {
		switch t.Kind {
		case sqlparser.TokenNumber, sqlparser.TokenString, sqlparser.TokenParam:
			parts = append(parts, "?")
		case sqlparser.TokenIdent:
			parts = append(parts, strings.ToLower(t.Text))
		default:
			parts = append(parts, t.Text)
		}
	}
	return strings.Join(parts, " ")
}

// generators are the five benchmark generators, built once per test
// binary: Real-M's and Scale-M's wide catalogs take a while to build
// under -race, and scripts/ci.sh repeats the oracle test there.
var generators = sync.OnceValue(func() []*benchmarks.Generator {
	var gens []*benchmarks.Generator
	for _, name := range []string{"tpch", "tpcds", "dsb", "realm", "scalem"} {
		g, err := benchmarks.FromName(name, 10, 1)
		if err != nil {
			panic(err)
		}
		gens = append(gens, g)
	}
	return gens
})

// atProcs runs fn with GOMAXPROCS set to each of procs in turn; the
// loader sizes its worker pool from GOMAXPROCS.
func atProcs(t *testing.T, procs []int, fn func(t *testing.T)) {
	t.Helper()
	for _, p := range procs {
		t.Run(fmt.Sprintf("procs%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			fn(t)
		})
	}
}

// testLog renders a generator's n-query workload as a JSON log with
// fractional costs and a mix of explicit and default weights.
func testLog(t *testing.T, g *benchmarks.Generator, n int, seed int64) ([]string, []byte) {
	t.Helper()
	w, err := g.Workload(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	sqls := make([]string, w.Len())
	for i, q := range w.Queries {
		sqls[i] = q.Text
		q.Cost = math.Sqrt(float64(i)+0.5) * 1e3 / 7
		if i%3 == 1 {
			q.Weight = float64(i%5) + 0.25
		}
	}
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return sqls, buf.Bytes()
}

// sameWorkload fails unless got and want hold the same queries, field by
// field, with costs and weights compared bit for bit.
func sameWorkload(t *testing.T, got, want *workload.Workload) {
	t.Helper()
	if got.Catalog != want.Catalog {
		t.Fatal("catalog differs")
	}
	if len(got.Queries) != len(want.Queries) {
		t.Fatalf("%d queries, want %d", len(got.Queries), len(want.Queries))
	}
	for i, g := range got.Queries {
		w := want.Queries[i]
		switch {
		case g.ID != w.ID:
			t.Fatalf("query %d: ID %d, want %d", i, g.ID, w.ID)
		case g.Text != w.Text:
			t.Fatalf("query %d: text %q, want %q", i, g.Text, w.Text)
		case g.TemplateID != w.TemplateID:
			t.Fatalf("query %d: template %q, want %q", i, g.TemplateID, w.TemplateID)
		case math.Float64bits(g.Cost) != math.Float64bits(w.Cost):
			t.Fatalf("query %d: cost %v, want %v", i, g.Cost, w.Cost)
		case math.Float64bits(g.Weight) != math.Float64bits(w.Weight):
			t.Fatalf("query %d: weight %v, want %v", i, g.Weight, w.Weight)
		case g.Stmt.SQL() != w.Stmt.SQL():
			t.Fatalf("query %d: statement %q, want %q", i, g.Stmt.SQL(), w.Stmt.SQL())
		case !reflect.DeepEqual(g.Stmt, w.Stmt):
			t.Fatalf("query %d: statement %q parsed to another tree", i, g.Stmt.SQL())
		case !reflect.DeepEqual(g.Info, w.Info):
			t.Fatalf("query %d: analysis differs:\n got %+v\nwant %+v", i, g.Info, w.Info)
		}
	}
}

// TestLoadMatchesSerialReference pins the parallel loader to the serial
// one it replaced: Load and New build the same workload from every
// generator's log at any worker count, and a log with several bad entries
// fails with the reference's error for the lowest one.
func TestLoadMatchesSerialReference(t *testing.T) {
	type logCase struct {
		name string
		gen  *benchmarks.Generator
		n    int
	}
	var cases []logCase
	for _, g := range generators() {
		// Under -race, enough entries for every worker to take several:
		// scripts/ci.sh repeats this test ten times there.
		n := 400
		if raceEnabled {
			n = 40
		}
		cases = append(cases, logCase{g.Name, g, n})
	}
	if !testing.Short() && !raceEnabled {
		scaleM := generators()[4]
		cases = append(cases, logCase{"Scale-M-10k", scaleM, 10000})
	}
	for _, c := range cases {
		sqls, data := testLog(t, c.gen, c.n, 1)
		want, err := serialLoad(c.gen.Cat, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		wantNew, err := serialNew(c.gen.Cat, sqls)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(c.name, func(t *testing.T) {
			atProcs(t, []int{1, 2, 4}, func(t *testing.T) {
				got, err := workload.Load(c.gen.Cat, bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				sameWorkload(t, got, want)
				gotNew, err := workload.New(c.gen.Cat, sqls)
				if err != nil {
					t.Fatal(err)
				}
				sameWorkload(t, gotNew, wantNew)
			})
		})
	}

	// Error precedence over a log whose bad entries fall to different
	// workers: entry 3 does not parse, entry 7 has a negative cost.
	g := generators()[0]
	sqls, _ := testLog(t, g, 10, 1)
	entries := make([]workload.LogEntry, len(sqls))
	for i, sql := range sqls {
		entries[i] = workload.LogEntry{SQL: sql, Cost: 1}
	}
	errCases := []struct {
		name  string
		bad   map[int]func(e *workload.LogEntry)
		first int // the entry the error must name
	}{
		{"entries 3 and 7", map[int]func(e *workload.LogEntry){
			3: func(e *workload.LogEntry) { e.SQL = "SELECT FROM WHERE" },
			7: func(e *workload.LogEntry) { e.Cost = -1 },
		}, 3},
		{"entry 7 only", map[int]func(e *workload.LogEntry){
			7: func(e *workload.LogEntry) { e.Cost = -1 },
		}, 7},
	}
	for _, c := range errCases {
		log := append([]workload.LogEntry(nil), entries...)
		badSQL := append([]string(nil), sqls...)
		for i, spoil := range c.bad {
			spoil(&log[i])
			badSQL[i] = "NOT SQL" // New has no costs; every listed entry fails to parse
		}
		data, err := json.Marshal(log)
		if err != nil {
			t.Fatal(err)
		}
		_, wantErr := serialLoad(g.Cat, bytes.NewReader(data))
		_, wantNewErr := serialNew(g.Cat, badSQL)
		if wantErr == nil || !strings.Contains(wantErr.Error(), fmt.Sprintf("entry %d:", c.first)) ||
			wantNewErr == nil || !strings.Contains(wantNewErr.Error(), fmt.Sprintf("query %d:", c.first)) {
			t.Fatalf("%s: reference errors %v / %v, want them to name %d", c.name, wantErr, wantNewErr, c.first)
		}
		t.Run(c.name, func(t *testing.T) {
			atProcs(t, []int{1, 2, 4, 8}, func(t *testing.T) {
				if _, err := workload.Load(g.Cat, bytes.NewReader(data)); err == nil || err.Error() != wantErr.Error() {
					t.Errorf("Load error %v, want %v", err, wantErr)
				}
				if _, err := workload.New(g.Cat, badSQL); err == nil || err.Error() != wantNewErr.Error() {
					t.Errorf("New error %v, want %v", err, wantNewErr)
				}
			})
		})
	}
}

func TestFingerprintTemplates(t *testing.T) {
	a := workload.Fingerprint("SELECT * FROM orders WHERE o_custkey = 17")
	b := workload.Fingerprint("select  *  from ORDERS where O_CUSTKEY=42")
	if a != b {
		t.Fatalf("fingerprints differ:\n%q\n%q", a, b)
	}
	c := workload.Fingerprint("SELECT * FROM orders WHERE o_custkey = 17 AND o_totalprice > 5")
	if a == c {
		t.Fatal("different shapes must differ")
	}
	d := workload.Fingerprint("SELECT * FROM orders WHERE o_comment LIKE 'a%'")
	e := workload.Fingerprint("SELECT * FROM orders WHERE o_comment LIKE 'zzz%'")
	if d != e {
		t.Fatal("string literals should normalise")
	}
	if !strings.Contains(workload.Fingerprint("@@garbage@@"), "garbage") {
		t.Fatal("fallback fingerprint should preserve text")
	}
	// Identifiers lower-case as strings.ToLower does them, non-ASCII ones
	// by Unicode rules.
	for sql, want := range map[string]string{
		"SELECT ÄÖ FROM Straße WHERE x = 'ü'":         "SELECT äö FROM straße WHERE x = ?",
		"SELECT AZ_az, Q9$# FROM TZ WHERE [Zz Q] = ?": "SELECT az_az , q9$# FROM tz WHERE zz q = ?",
	} {
		if got := workload.Fingerprint(sql); got != want || got != serialFingerprint(sql) {
			t.Errorf("Fingerprint(%q) = %q, want %q", sql, got, want)
		}
	}
	// With lower-case identifiers, one allocation for the tokens and one
	// for the fingerprint.
	sql := "SELECT o_orderkey, sum(o_totalprice) FROM orders WHERE o_custkey = 17 AND o_comment LIKE 'a%' GROUP BY o_orderkey"
	if allocs := testing.AllocsPerRun(100, func() { workload.Fingerprint(sql) }); allocs != 2 {
		t.Errorf("Fingerprint: %v allocs, want 2", allocs)
	}

	// A query's template comes from the tokens its parse used; it must be
	// the fingerprint of its text, for every template of every generator.
	for _, g := range generators() {
		w, err := g.WorkloadPerTemplate(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range w.Queries {
			nq, err := workload.NewQuery(g.Cat, i, q.Text)
			if err != nil {
				t.Fatalf("%s query %d: %v", g.Name, i, err)
			}
			if fp := workload.Fingerprint(q.Text); nq.TemplateID != fp || fp != serialFingerprint(q.Text) {
				t.Fatalf("%s query %d: template %q, Fingerprint %q, reference %q", g.Name, i, nq.TemplateID, fp, serialFingerprint(q.Text))
			}
		}
	}
}
