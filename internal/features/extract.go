package features

import (
	"sort"
	"strings"

	"isum/internal/catalog"
	"isum/internal/workload"
)

// WeightMode selects how indexable columns are weighted (Section 4.2).
type WeightMode int

const (
	// RuleBased counts the fraction of Table-1 candidate indexes each
	// column participates in. This is ISUM's default: it needs no column
	// statistics beyond table sizes.
	RuleBased WeightMode = iota
	// StatsBased weighs columns by (1 − s(c)) where s is the predicate
	// selectivity for filter/join columns and the density for
	// group-by/order-by columns — the ISUM-S variant.
	StatsBased
)

// NormMode selects the per-query weight normalisation.
type NormMode int

const (
	// NormMax divides weights by the query's maximum weight, giving values
	// in (0, 1] while preserving ratios. This is the default: the paper's
	// literal min-max denominator is numerically unstable when a query's
	// weights are nearly equal (max − min → 0).
	NormMax NormMode = iota
	// NormMinMaxPaper divides by (max − min) exactly as written in
	// Section 4.2, falling back to NormMax when max = min.
	NormMinMaxPaper
	// NormNone leaves raw weights.
	NormNone
)

// Position is the syntactic role of an indexable column (Definition 5).
type Position int

const (
	// PosFilter marks filter-predicate columns.
	PosFilter Position = iota
	// PosJoin marks join-predicate columns.
	PosJoin
	// PosGroupBy marks GROUP BY columns.
	PosGroupBy
	// PosOrderBy marks ORDER BY columns.
	PosOrderBy
)

// Feature is one entry of a query's feature vector (Definition 6): an
// indexable column's key ("table.column") and its weight.
type Feature struct {
	Key string
	W   float64
}

// Extractor computes query feature vectors against a catalog.
type Extractor struct {
	Cat  *catalog.Catalog
	Mode WeightMode
	Norm NormMode
	// UseTableWeight multiplies column weights by w_table = n(t)/Σn(t').
	// The ISUM-NoTable ablation (Fig. 10) sets this false.
	UseTableWeight bool
}

// NewExtractor returns a rule-based extractor with table weighting — the
// default ISUM configuration.
func NewExtractor(cat *catalog.Catalog) *Extractor {
	return &Extractor{Cat: cat, Mode: RuleBased, Norm: NormMax, UseTableWeight: true}
}

// columnRole aggregates everything known about one indexable column in one
// query.
type columnRole struct {
	cu        workload.ColumnUse
	positions map[Position]bool
	// minSel is the most selective predicate selectivity observed for the
	// column (filters and joins).
	minSel float64
	hasSel bool
}

// Features returns the query's feature vector (Definition 6): one weight
// per indexable column, normalised per Norm, as pairs in ascending key
// order. Columns whose weight is not positive are left out.
func (e *Extractor) Features(q *workload.Query) []Feature {
	if q.Info == nil {
		return nil
	}
	roles := e.collectRoles(q.Info)
	if len(roles) == 0 {
		return nil
	}

	// Per-table position counts for the rule-based candidate counting.
	counts := map[string]*positionCounts{}
	for _, r := range roles {
		pc := counts[r.cu.Table]
		if pc == nil {
			pc = &positionCounts{}
			counts[r.cu.Table] = pc
		}
		if r.positions[PosFilter] {
			pc.S++
		}
		if r.positions[PosJoin] {
			pc.J++
		}
		if r.positions[PosGroupBy] {
			pc.G++
		}
		if r.positions[PosOrderBy] {
			pc.O++
		}
	}

	keys := make([]string, 0, len(roles))
	for key := range roles {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	fs := make([]Feature, 0, len(keys))
	for _, key := range keys {
		r := roles[key]
		var w float64
		switch e.Mode {
		case StatsBased:
			w = e.statsWeight(r)
		default:
			w = e.ruleWeight(r, counts[r.cu.Table])
		}
		if e.UseTableWeight {
			w *= e.Cat.TableWeight(r.cu.Table)
		}
		if w > 0 {
			fs = append(fs, Feature{Key: key, W: w})
		}
	}
	return e.normalize(fs)
}

// positionCounts holds per-table counts of columns in each position.
type positionCounts struct{ S, J, G, O int }

// ruleWeight implements the Table-1 candidate-index counting. Each rule
// generates one candidate per choice of one column for each of its
// positions:
//
//	R1 sel (S) · R2 join (J) · R3 sel+join (S·J) · R4 join+sel (J·S)
//	R5 ob+sel+join (O·S·J) · R6 gb+sel+join (G·S·J)
//	R7 ob+join+sel (O·J·S) · R8 gb+join+sel (G·J·S)
//
// plus singleton group-by and order-by candidates (G, O) so that sort- and
// group-only queries still produce non-zero weights (advisors do generate
// bare ordering indexes; without this the paper's formula zeroes such
// queries out). d(t,c)/d(t) then follows Section 4.2: order-by/group-by
// columns participate in fewer candidates than selection or join columns.
func (e *Extractor) ruleWeight(r *columnRole, pc *positionCounts) float64 {
	s, j, g, o := float64(pc.S), float64(pc.J), float64(pc.G), float64(pc.O)
	dt := s + j + g + o + 2*s*j + 2*o*s*j + 2*g*s*j
	if dt == 0 {
		return 0
	}
	var dtc float64
	if r.positions[PosFilter] {
		dtc = max64(dtc, 1+2*j+2*o*j+2*g*j)
	}
	if r.positions[PosJoin] {
		dtc = max64(dtc, 1+2*s+2*o*s+2*g*s)
	}
	if r.positions[PosGroupBy] || r.positions[PosOrderBy] {
		dtc = max64(dtc, 1+2*s*j)
	}
	return dtc / dt
}

// statsWeight implements w(c) = 1 − s(c) with s the best predicate
// selectivity for filter/join columns and the column density for
// group-by/order-by columns.
func (e *Extractor) statsWeight(r *columnRole) float64 {
	s := 1.0
	if (r.positions[PosFilter] || r.positions[PosJoin]) && r.hasSel {
		s = r.minSel
	} else if r.positions[PosGroupBy] || r.positions[PosOrderBy] {
		if t := e.Cat.Table(r.cu.Table); t != nil {
			if c := t.Column(r.cu.Column); c != nil {
				s = c.Density()
			}
		}
	}
	w := 1 - s
	if w < 0.01 {
		w = 0.01 // keep every indexable column minimally present
	}
	return w
}

func (e *Extractor) collectRoles(info *workload.Info) map[string]*columnRole {
	roles := map[string]*columnRole{}
	get := func(cu workload.ColumnUse) *columnRole {
		key := strings.ToLower(cu.Key())
		r := roles[key]
		if r == nil {
			r = &columnRole{cu: cu, positions: map[Position]bool{}}
			roles[key] = r
		}
		return r
	}
	for _, f := range info.Filters {
		r := get(f.ColumnUse)
		r.positions[PosFilter] = true
		if !r.hasSel || f.Selectivity < r.minSel {
			r.minSel, r.hasSel = f.Selectivity, true
		}
	}
	for _, j := range info.Joins {
		for _, cu := range []workload.ColumnUse{j.Left, j.Right} {
			r := get(cu)
			r.positions[PosJoin] = true
			if !r.hasSel || j.Selectivity < r.minSel {
				r.minSel, r.hasSel = j.Selectivity, true
			}
		}
	}
	for _, cu := range info.GroupBy {
		get(cu).positions[PosGroupBy] = true
	}
	for _, cu := range info.OrderBy {
		get(cu).positions[PosOrderBy] = true
	}
	return roles
}

// normalize divides every weight by the query's maximum weight (or, under
// NormMinMaxPaper, by max − min). Min, max and each divide are independent
// of the pairs' order.
func (e *Extractor) normalize(fs []Feature) []Feature {
	if len(fs) == 0 || e.Norm == NormNone {
		return fs
	}
	minW, maxW := fs[0].W, fs[0].W
	for _, f := range fs[1:] {
		if f.W < minW {
			minW = f.W
		}
		if f.W > maxW {
			maxW = f.W
		}
	}
	if maxW <= 0 {
		return fs
	}
	denom := maxW
	if e.Norm == NormMinMaxPaper && maxW > minW {
		denom = maxW - minW
	}
	for i := range fs {
		fs[i].W /= denom
	}
	return fs
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
