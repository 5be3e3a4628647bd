package catalog

import (
	"fmt"
	"strings"
)

// PageSizeBytes is the assumed storage page size. The absolute value only
// scales costs uniformly; 8 KiB matches common engines.
const PageSizeBytes = 8192

// Column describes one column of a table together with its optimizer
// statistics.
type Column struct {
	Name     string
	Type     ColumnType
	AvgWidth int // average width in bytes; 0 means ColumnType.ByteWidth()

	// Statistics.
	DistinctCount int64   // number of distinct non-null values
	NullFraction  float64 // fraction of rows that are NULL in [0,1]
	Min, Max      float64 // numeric domain (dates as day numbers, strings hashed)
	Hist          *Histogram

	table *Table
}

// Table returns the table this column belongs to.
func (c *Column) Table() *Table { return c.table }

// QualifiedName returns "table.column".
func (c *Column) QualifiedName() string {
	if c.table == nil {
		return c.Name
	}
	return c.table.Name + "." + c.Name
}

// Width returns the average byte width of the column.
func (c *Column) Width() int {
	if c.AvgWidth > 0 {
		return c.AvgWidth
	}
	return c.Type.ByteWidth()
}

// Density returns 1/DistinctCount, the measure the paper uses to weigh
// group-by and order-by columns (Section 4.2). It is 1 when statistics are
// missing, i.e. an un-analysed column is assumed maximally dense so it never
// receives an inflated index weight.
func (c *Column) Density() float64 {
	if c.DistinctCount <= 0 {
		return 1
	}
	return 1 / float64(c.DistinctCount)
}

// Table describes one base table and its cardinality statistics.
type Table struct {
	Name string
	// RowCount must not change once the table is in a catalog: AddTable
	// adds it to the catalog's maintained row total.
	RowCount int64

	columns []*Column
	byName  map[string]*Column
}

// NewTable creates an empty table with the given name and row count.
func NewTable(name string, rows int64) *Table {
	return &Table{
		Name:     name,
		RowCount: rows,
		byName:   make(map[string]*Column),
	}
}

// AddColumn appends a column definition and returns it. Adding a duplicate
// name replaces the previous definition (useful when refreshing statistics).
func (t *Table) AddColumn(c *Column) *Column {
	c.table = t
	key := strings.ToLower(c.Name)
	if old, ok := t.byName[key]; ok {
		for i, existing := range t.columns {
			if existing == old {
				t.columns[i] = c
				break
			}
		}
	} else {
		t.columns = append(t.columns, c)
	}
	t.byName[key] = c
	return c
}

// Column returns the named column (case-insensitive) or nil.
func (t *Table) Column(name string) *Column {
	return t.byName[strings.ToLower(name)]
}

// Columns returns the columns in definition order.
func (t *Table) Columns() []*Column { return t.columns }

// RowWidth returns the average row width in bytes.
func (t *Table) RowWidth() int {
	w := 0
	for _, c := range t.columns {
		w += c.Width()
	}
	if w == 0 {
		w = 8
	}
	return w
}

// PageCount estimates the number of heap pages occupied by the table.
func (t *Table) PageCount() int64 {
	rowsPerPage := int64(PageSizeBytes / t.RowWidth())
	if rowsPerPage < 1 {
		rowsPerPage = 1
	}
	pages := t.RowCount / rowsPerPage
	if pages < 1 {
		pages = 1
	}
	return pages
}

// SizeBytes estimates the on-disk size of the table.
func (t *Table) SizeBytes() int64 { return t.PageCount() * PageSizeBytes }

// Catalog is a collection of tables. It is the unit handed to the parser's
// binder, the cost model, and the feature extractor.
type Catalog struct {
	tables map[string]*Table
	order  []string
	// totalRows is Σ RowCount over tables, kept by AddTable. An int64 sum
	// does not depend on order, so it equals a fresh sum over the map.
	totalRows int64
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// AddTable registers a table, replacing any table with the same
// (case-insensitive) name.
func (cat *Catalog) AddTable(t *Table) *Table {
	key := strings.ToLower(t.Name)
	if old, ok := cat.tables[key]; ok {
		cat.totalRows -= old.RowCount
	} else {
		cat.order = append(cat.order, key)
	}
	cat.tables[key] = t
	cat.totalRows += t.RowCount
	return t
}

// Table returns the named table (case-insensitive) or nil.
func (cat *Catalog) Table(name string) *Table {
	return cat.tables[strings.ToLower(name)]
}

// Tables returns all tables in registration order.
func (cat *Catalog) Tables() []*Table {
	out := make([]*Table, 0, len(cat.order))
	for _, k := range cat.order {
		out = append(out, cat.tables[k])
	}
	return out
}

// NumTables returns the number of registered tables.
func (cat *Catalog) NumTables() int { return len(cat.tables) }

// TotalRows returns the sum of row counts across tables.
func (cat *Catalog) TotalRows() int64 { return cat.totalRows }

// TotalSizeBytes returns the estimated total base-table size. The paper's
// storage-budget experiments (Fig. 10) express budgets as multiples of this.
func (cat *Catalog) TotalSizeBytes() int64 {
	var n int64
	for _, t := range cat.tables {
		n += t.SizeBytes()
	}
	return n
}

// TableWeight returns n(t)/Σn(t'), the table-size weight w_table from
// Section 4.2 used by both the rule-based and statistics-based column
// weighting schemes.
func (cat *Catalog) TableWeight(name string) float64 {
	t := cat.Table(name)
	if t == nil {
		return 0
	}
	total := cat.TotalRows()
	if total == 0 {
		return 0
	}
	return float64(t.RowCount) / float64(total)
}

// Validate performs basic consistency checks and returns all problems found.
func (cat *Catalog) Validate() []error {
	var errs []error
	for _, t := range cat.Tables() {
		if t.RowCount < 0 {
			errs = append(errs, fmt.Errorf("table %s: negative row count %d", t.Name, t.RowCount))
		}
		if len(t.Columns()) == 0 {
			errs = append(errs, fmt.Errorf("table %s: no columns", t.Name))
		}
		for _, c := range t.Columns() {
			if c.DistinctCount > t.RowCount && t.RowCount > 0 {
				errs = append(errs, fmt.Errorf("column %s: distinct count %d exceeds row count %d",
					c.QualifiedName(), c.DistinctCount, t.RowCount))
			}
			if c.NullFraction < 0 || c.NullFraction > 1 {
				errs = append(errs, fmt.Errorf("column %s: null fraction %f out of range",
					c.QualifiedName(), c.NullFraction))
			}
			if c.Min > c.Max {
				errs = append(errs, fmt.Errorf("column %s: min %f > max %f",
					c.QualifiedName(), c.Min, c.Max))
			}
			if err := c.Hist.Validate(); err != nil {
				errs = append(errs, fmt.Errorf("column %s: %w", c.QualifiedName(), err))
			}
		}
	}
	return errs
}
