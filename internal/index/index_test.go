package index

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"isum/internal/catalog"
)

func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	t := catalog.NewTable("orders", 100000)
	t.AddColumn(&catalog.Column{Name: "o_orderkey", Type: catalog.TypeInt, DistinctCount: 100000})
	t.AddColumn(&catalog.Column{Name: "o_custkey", Type: catalog.TypeInt, DistinctCount: 10000})
	t.AddColumn(&catalog.Column{Name: "o_orderdate", Type: catalog.TypeDate, DistinctCount: 2400})
	t.AddColumn(&catalog.Column{Name: "o_comment", Type: catalog.TypeString})
	cat.AddTable(t)
	return cat
}

func TestIndexID(t *testing.T) {
	a := New("Orders", "O_CustKey", "o_orderdate")
	b := New("orders", "o_custkey", "O_ORDERDATE")
	if a.ID() != b.ID() {
		t.Fatalf("IDs should be case-insensitive: %q vs %q", a.ID(), b.ID())
	}
	c := New("orders", "o_orderdate", "o_custkey")
	if a.ID() == c.ID() {
		t.Fatal("key order must matter")
	}
	d := a.WithIncludes("o_comment")
	e := a.WithIncludes("O_COMMENT")
	if d.ID() != e.ID() {
		t.Fatal("include order/case should not matter")
	}
	if !strings.Contains(d.ID(), "include") {
		t.Fatalf("ID should mention includes: %q", d.ID())
	}
}

func TestWithIncludesDedup(t *testing.T) {
	ix := New("orders", "o_custkey").WithIncludes("o_custkey", "o_comment", "o_comment")
	if len(ix.Includes) != 1 || ix.Includes[0] != "o_comment" {
		t.Fatalf("includes = %v", ix.Includes)
	}
}

func TestHasKeyPrefixAndCovers(t *testing.T) {
	ix := New("orders", "o_custkey", "o_orderdate").WithIncludes("o_comment")
	if !ix.HasKeyPrefix([]string{"O_CUSTKEY"}) {
		t.Fatal("single prefix failed")
	}
	if !ix.HasKeyPrefix([]string{"o_custkey", "o_orderdate"}) {
		t.Fatal("full prefix failed")
	}
	if ix.HasKeyPrefix([]string{"o_orderdate"}) {
		t.Fatal("non-leading column is not a prefix")
	}
	if ix.HasKeyPrefix([]string{"o_custkey", "o_orderdate", "o_comment"}) {
		t.Fatal("over-long prefix should fail")
	}
	if !ix.Covers([]string{"o_comment", "o_custkey"}) {
		t.Fatal("covers failed")
	}
	if ix.Covers([]string{"o_orderkey"}) {
		t.Fatal("covers should fail for absent column")
	}
}

func TestIndexSizeBytes(t *testing.T) {
	cat := testCatalog()
	small := New("orders", "o_custkey")
	big := New("orders", "o_custkey").WithIncludes("o_comment", "o_orderdate")
	if small.SizeBytes(cat) <= 0 {
		t.Fatal("size must be positive")
	}
	if big.SizeBytes(cat) <= small.SizeBytes(cat) {
		t.Fatal("wider index must be larger")
	}
	if New("missing", "x").SizeBytes(cat) != 0 {
		t.Fatal("unknown table should size 0")
	}
}

func TestIndexValidate(t *testing.T) {
	cat := testCatalog()
	if err := New("orders", "o_custkey").Validate(cat); err != nil {
		t.Fatal(err)
	}
	if err := New("orders").Validate(cat); err == nil {
		t.Fatal("no keys should fail")
	}
	if err := New("nope", "x").Validate(cat); err == nil {
		t.Fatal("unknown table should fail")
	}
	if err := New("orders", "nope").Validate(cat); err == nil {
		t.Fatal("unknown column should fail")
	}
	if err := New("orders", "o_custkey", "o_custkey").Validate(cat); err == nil {
		t.Fatal("duplicate column should fail")
	}
}

func TestConfigurationBasics(t *testing.T) {
	cfg := NewConfiguration()
	a := New("orders", "o_custkey")
	b := New("orders", "o_orderdate")
	if !cfg.Add(a) || !cfg.Add(b) {
		t.Fatal("adds should succeed")
	}
	if cfg.Add(New("ORDERS", "O_CUSTKEY")) {
		t.Fatal("duplicate add should fail")
	}
	if cfg.Len() != 2 {
		t.Fatalf("len = %d", cfg.Len())
	}
	if !cfg.Contains(a) {
		t.Fatal("contains failed")
	}
	if got := len(cfg.ForTable("orders")); got != 2 {
		t.Fatalf("for-table = %d", got)
	}
	if !cfg.Remove(a) || cfg.Remove(a) {
		t.Fatal("remove semantics broken")
	}
	if cfg.Len() != 1 {
		t.Fatalf("len after remove = %d", cfg.Len())
	}
}

func TestConfigurationCloneIsolation(t *testing.T) {
	cfg := NewConfiguration(New("orders", "o_custkey"))
	cl := cfg.Clone()
	cl.Add(New("orders", "o_orderdate"))
	if cfg.Len() != 1 || cl.Len() != 2 {
		t.Fatal("clone not isolated")
	}
	w := cfg.With(New("orders", "o_orderdate"))
	if cfg.Len() != 1 || w.Len() != 2 {
		t.Fatal("With not isolated")
	}
}

func TestConfigurationUnionAndFingerprint(t *testing.T) {
	a := NewConfiguration(New("orders", "o_custkey"))
	b := NewConfiguration(New("orders", "o_orderdate"), New("orders", "o_custkey"))
	u := a.Union(b)
	if u.Len() != 2 {
		t.Fatalf("union len = %d", u.Len())
	}
	u2 := b.Union(a)
	if u.Fingerprint() != u2.Fingerprint() {
		t.Fatal("fingerprint should be order-independent")
	}
	if NewConfiguration().Fingerprint() != "" {
		t.Fatal("empty fingerprint should be empty string")
	}
}

// TestProbeViewMatchesWith pins Probe's contract: the view answers every
// read exactly as the With copy does, leaves its base untouched, and
// becomes a configuration of its own when written to.
func TestProbeViewMatchesWith(t *testing.T) {
	cat := testCatalog()
	base := NewConfiguration(New("orders", "o_custkey"), New("customer", "c_nationkey"))
	ix := New("Orders", "o_orderdate").WithIncludes("o_totalprice")
	for _, b := range []*Configuration{nil, NewConfiguration(), base} {
		view, copied := b.Probe(NewMember(ix)), b.With(ix)
		if view.Len() != copied.Len() || view.Fingerprint() != copied.Fingerprint() ||
			view.SizeBytes(cat) != copied.SizeBytes(cat) || !view.Contains(ix) {
			t.Fatalf("view %q (len %d) differs from With %q (len %d)", view.Fingerprint(), view.Len(), copied.Fingerprint(), copied.Len())
		}
		for _, table := range []string{"orders", "ORDERS", "customer", "lineitem"} {
			if got, want := len(view.ForTable(table)), len(copied.ForTable(table)); got != want {
				t.Fatalf("ForTable(%q): view %d members, With %d", table, got, want)
			}
		}
		if got, want := len(view.AppendOnTable(nil, "orders")), len(copied.ForTable("orders")); got != want {
			t.Fatalf("AppendOnTable: view %d members, With %d", got, want)
		}
		if b.Contains(ix) {
			t.Fatal("probing changed the base")
		}
		if cl := view.Clone(); cl.Fingerprint() != copied.Fingerprint() {
			t.Fatalf("clone of view %q, want %q", cl.Fingerprint(), copied.Fingerprint())
		}
	}
	if base.Probe(NewMember(New("orders", "o_custkey"))) != base {
		t.Fatal("probing a member should return the configuration itself")
	}
	view := base.Probe(NewMember(ix))
	if !view.Add(New("lineitem", "l_orderkey")) || view.Len() != 4 || base.Len() != 2 {
		t.Fatalf("writing a view: view len %d, base len %d", view.Len(), base.Len())
	}
}

func TestNilConfigurationSafe(t *testing.T) {
	var c *Configuration
	if c.Len() != 0 || c.Contains(New("t", "x")) || c.ForTable("t") != nil {
		t.Fatal("nil configuration should behave as empty")
	}
	if c.SizeBytes(testCatalog()) != 0 {
		t.Fatal("nil size should be 0")
	}
	if got := c.Clone().Len(); got != 0 {
		t.Fatalf("nil clone len = %d", got)
	}
}

// Property: ID is a total identity — equal IDs imply Covers-equivalence on
// key sets.
func TestIndexIDProperty(t *testing.T) {
	f := func(ks1, ks2 []byte) bool {
		mk := func(ks []byte) Index {
			keys := make([]string, 0, len(ks)%5+1)
			for i := 0; i <= len(ks)%5 && i < len(ks); i++ {
				keys = append(keys, string('a'+ks[i]%26))
			}
			if len(keys) == 0 {
				keys = []string{"a"}
			}
			return New("t", keys...)
		}
		a, b := mk(ks1), mk(ks2)
		if a.ID() == b.ID() {
			return a.Covers(b.Keys) && b.Covers(a.Keys)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexesDeterministicOrder(t *testing.T) {
	cfg := NewConfiguration(
		New("b", "y"), New("a", "x"), New("c", "z"),
	)
	first := cfg.Indexes()
	for i := 0; i < 5; i++ {
		again := cfg.Indexes()
		for j := range first {
			if first[j].ID() != again[j].ID() {
				t.Fatal("index order not deterministic")
			}
		}
	}
}

func TestIndexStringAndLeadingKey(t *testing.T) {
	ix := New("orders", "o_custkey", "o_orderdate").WithIncludes("o_comment")
	s := ix.String()
	if !strings.Contains(s, "orders") || !strings.Contains(s, "INCLUDE") {
		t.Fatalf("string = %q", s)
	}
	if ix.LeadingKey() != "o_custkey" {
		t.Fatalf("leading = %q", ix.LeadingKey())
	}
	if New("t").LeadingKey() != "" {
		t.Fatal("empty index leading key")
	}
}

func TestConfigurationSizeBytes(t *testing.T) {
	cat := testCatalog()
	cfg := NewConfiguration(
		New("orders", "o_custkey"),
		New("orders", "o_orderdate").WithIncludes("o_comment"),
	)
	var want int64
	for _, ix := range cfg.Indexes() {
		want += ix.SizeBytes(cat)
	}
	if got := cfg.SizeBytes(cat); got != want || got <= 0 {
		t.Fatalf("size = %d, want %d", got, want)
	}
}

func TestConfigurationJSONRoundTrip(t *testing.T) {
	cfg := NewConfiguration(
		New("orders", "o_custkey", "o_orderdate").WithIncludes("o_comment"),
		New("orders", "o_orderkey"),
	)
	var buf bytes.Buffer
	if err := cfg.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfigurationJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != cfg.Fingerprint() {
		t.Fatalf("fingerprints differ:\n%s\n%s", got.Fingerprint(), cfg.Fingerprint())
	}
}

func TestLoadConfigurationJSONErrors(t *testing.T) {
	if _, err := LoadConfigurationJSON(strings.NewReader("[{bad")); err == nil {
		t.Fatal("bad JSON should fail")
	}
	if _, err := LoadConfigurationJSON(strings.NewReader(`[{"table":"","keys":[]}]`)); err == nil {
		t.Fatal("missing table/keys should fail")
	}
}
