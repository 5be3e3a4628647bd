package catalog

import (
	"math"
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := NewTable("orders", 10000)
	t.AddColumn(&Column{Name: "o_orderkey", Type: TypeInt, DistinctCount: 10000, Min: 1, Max: 10000})
	t.AddColumn(&Column{Name: "o_custkey", Type: TypeInt, DistinctCount: 1000, Min: 1, Max: 1000})
	t.AddColumn(&Column{Name: "o_totalprice", Type: TypeDecimal, DistinctCount: 8000, Min: 1, Max: 500000})
	t.AddColumn(&Column{Name: "o_comment", Type: TypeString, DistinctCount: 9500})
	return t
}

func TestTableColumnLookupCaseInsensitive(t *testing.T) {
	tbl := sampleTable()
	if tbl.Column("O_ORDERKEY") == nil {
		t.Fatal("case-insensitive lookup failed")
	}
	if tbl.Column("nope") != nil {
		t.Fatal("unexpected column")
	}
}

func TestAddColumnReplacesDuplicate(t *testing.T) {
	tbl := sampleTable()
	n := len(tbl.Columns())
	tbl.AddColumn(&Column{Name: "o_custkey", Type: TypeInt, DistinctCount: 2000})
	if len(tbl.Columns()) != n {
		t.Fatalf("duplicate add changed column count: %d != %d", len(tbl.Columns()), n)
	}
	if tbl.Column("o_custkey").DistinctCount != 2000 {
		t.Fatal("replacement did not take effect")
	}
}

func TestPageCountAndSize(t *testing.T) {
	tbl := sampleTable()
	if tbl.RowWidth() <= 0 {
		t.Fatal("row width must be positive")
	}
	if tbl.PageCount() < 1 {
		t.Fatal("page count must be at least 1")
	}
	if tbl.SizeBytes() != tbl.PageCount()*PageSizeBytes {
		t.Fatal("size mismatch")
	}
	empty := NewTable("empty", 0)
	if empty.PageCount() != 1 {
		t.Fatalf("empty table should occupy one page, got %d", empty.PageCount())
	}
}

func TestTableWeightSumsToOne(t *testing.T) {
	cat := New()
	a := NewTable("a", 900)
	a.AddColumn(&Column{Name: "x", Type: TypeInt})
	b := NewTable("b", 100)
	b.AddColumn(&Column{Name: "y", Type: TypeInt})
	cat.AddTable(a)
	cat.AddTable(b)
	wa, wb := cat.TableWeight("a"), cat.TableWeight("b")
	if math.Abs(wa-0.9) > 1e-12 || math.Abs(wb-0.1) > 1e-12 {
		t.Fatalf("weights wrong: %f %f", wa, wb)
	}
	if cat.TableWeight("missing") != 0 {
		t.Fatal("missing table should weigh 0")
	}

	// The maintained total survives replacement: re-adding a table under
	// the same name (any case) drops the old row count, so TotalRows and
	// every weight match a fresh sum over the tables.
	cat.AddTable(NewTable("c", 1<<40))
	cat.AddTable(NewTable("A", 333))
	cat.AddTable(NewTable("c", 7))
	cat.AddTable(b)
	var sum int64
	for _, tbl := range cat.Tables() {
		sum += tbl.RowCount
	}
	if cat.TotalRows() != sum || sum != 333+100+7 {
		t.Fatalf("TotalRows %d, sum over tables %d, want %d", cat.TotalRows(), sum, 333+100+7)
	}
	for _, tbl := range cat.Tables() {
		want := float64(tbl.RowCount) / float64(sum)
		if got := cat.TableWeight(tbl.Name); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("TableWeight(%s) = %v, want %v", tbl.Name, got, want)
		}
	}
}

func TestCatalogValidate(t *testing.T) {
	cat := New()
	bad := NewTable("bad", 10)
	bad.AddColumn(&Column{Name: "x", Type: TypeInt, DistinctCount: 100}) // distinct > rows
	bad.AddColumn(&Column{Name: "y", Type: TypeInt, NullFraction: 1.5})
	bad.AddColumn(&Column{Name: "z", Type: TypeInt, Min: 10, Max: 1})
	cat.AddTable(bad)
	cat.AddTable(NewTable("nocols", 5))
	errs := cat.Validate()
	if len(errs) != 4 {
		t.Fatalf("expected 4 validation errors, got %d: %v", len(errs), errs)
	}
}

func TestDensity(t *testing.T) {
	c := &Column{Name: "x", DistinctCount: 200}
	if got := c.Density(); math.Abs(got-0.005) > 1e-12 {
		t.Fatalf("density = %f, want 0.005", got)
	}
	unknown := &Column{Name: "y"}
	if unknown.Density() != 1 {
		t.Fatal("unknown distinct count should give density 1")
	}
}

func TestColumnTypeStringsAndWidths(t *testing.T) {
	types := []ColumnType{TypeInt, TypeFloat, TypeDecimal, TypeString, TypeDate, TypeBool}
	seen := map[string]bool{}
	for _, ct := range types {
		s := ct.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate type name %q", s)
		}
		seen[s] = true
		if ct.ByteWidth() <= 0 {
			t.Fatalf("type %s has non-positive width", s)
		}
	}
	if !strings.Contains(ColumnType(99).String(), "ColumnType") {
		t.Fatal("unknown type should stringify defensively")
	}
}

func TestQualifiedName(t *testing.T) {
	tbl := sampleTable()
	c := tbl.Column("o_custkey")
	if c.QualifiedName() != "orders.o_custkey" {
		t.Fatalf("got %q", c.QualifiedName())
	}
	loose := &Column{Name: "solo"}
	if loose.QualifiedName() != "solo" {
		t.Fatalf("got %q", loose.QualifiedName())
	}
	if c.Table() != tbl {
		t.Fatal("table backref broken")
	}
}
