package catalog

import "testing"

func TestCatalogAggregates(t *testing.T) {
	cat := New()
	a := NewTable("alpha", 1000)
	a.AddColumn(&Column{Name: "x", Type: TypeInt})
	b := NewTable("beta", 3000)
	b.AddColumn(&Column{Name: "y", Type: TypeInt})
	cat.AddTable(a)
	cat.AddTable(b)

	if cat.NumTables() != 2 {
		t.Fatalf("num tables = %d", cat.NumTables())
	}
	if cat.TotalRows() != 4000 {
		t.Fatalf("total rows = %d", cat.TotalRows())
	}
	wantSize := a.SizeBytes() + b.SizeBytes()
	if cat.TotalSizeBytes() != wantSize {
		t.Fatalf("total size = %d, want %d", cat.TotalSizeBytes(), wantSize)
	}
	// Re-adding a table keeps the count stable.
	cat.AddTable(NewTable("ALPHA", 500))
	if cat.NumTables() != 2 {
		t.Fatal("replacement changed table count")
	}
	if cat.Table("alpha").RowCount != 500 {
		t.Fatal("replacement did not take effect")
	}
	if len(cat.Tables()) != 2 {
		t.Fatal("Tables() should dedupe replacements")
	}
}
