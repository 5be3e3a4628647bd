// Package workload models SQL workloads for index tuning: queries with their
// optimizer-estimated costs, template fingerprints, and the bound analysis
// (tables, filter/join/group-by/order-by columns with selectivities) that
// both the cost model and ISUM's feature extraction consume.
//
// The paper assumes the input workload arrives with optimizer-estimated
// costs, e.g. harvested from SQL Server's Query Store (Section 2.2); the
// Load/Save functions in log.go mirror that contract with a JSON format.
package workload

import (
	"context"
	"fmt"
	"hash/maphash"

	"isum/internal/catalog"
	"isum/internal/parallel"
	"isum/internal/sqlparser"
)

// Query is one workload query.
type Query struct {
	// ID is the query's position in the workload (stable identifier).
	ID int
	// Text is the original SQL.
	Text string
	// Stmt is the parsed AST. Queries loaded by one New or Load call that
	// share a statement shape share the nodes no literal of theirs changes
	// (DESIGN.md §19), so Stmt is read-only, as in Subset's copies.
	Stmt *sqlparser.SelectStmt
	// Cost is the optimizer-estimated cost C(q) under the current physical
	// design, provided as part of the input workload (Section 2.2).
	Cost float64
	// TemplateID fingerprints the query modulo literal values; instances of
	// the same prepared statement share a TemplateID.
	TemplateID string
	// Info is the bound analysis against the catalog. Instances of one
	// statement shape loaded together share its literal-independent parts
	// (tables, joins, grouping and ordering columns, and every block whose
	// selectivities their literals do not change), so Info is read-only,
	// as in Subset's copies.
	Info *Info
	// Weight is the query's weight in a (compressed) workload; 1 by default.
	Weight float64
}

// Workload is an ordered collection of queries over one catalog.
type Workload struct {
	Queries []*Query
	Catalog *catalog.Catalog

	// tidx caches the per-template aggregation (counts and instance
	// groups); see templates.go. Lazily built, invalidated by Append and
	// by any length change to Queries.
	tidx *templateIndex
}

// New builds a workload by parsing and analysing each SQL string against the
// catalog. Costs are left zero; callers typically fill them via the what-if
// optimizer or load them from a log.
func New(cat *catalog.Catalog, sqls []string) (*Workload, error) {
	return build(cat, sqls, "query", nil)
}

// build is the loader behind New and Load. It turns sqls[i] into query i,
// or fails with the error of the lowest failing index, where check(i),
// when check is set, is entry i's error before its SQL is read. Query i's
// errors name it as "<what> i".
//
// It works in three passes over the worker pool, each writing only the
// slots of its own indices. The first lexes every entry and keys it by
// its shape (shapeKey). A serial scan then makes the first entry of each
// key its shape's leader. The second pass parses and analyses each
// leader: in full when the shape occurs once, as a template otherwise.
// The third binds every other entry to its leader's template (shape.go).
// Binding gives exactly what parsing and analysing would, and the
// catalog, the templates and the analyser are only read (DESIGN.md §7,
// §19), so the workload and the error do not depend on the worker count.
func build(cat *catalog.Catalog, sqls []string, what string, check func(i int) error) (*Workload, error) {
	w := &Workload{Catalog: cat}
	n := len(sqls)
	if n == 0 {
		return w, nil
	}
	qs := make([]*Query, n)
	errs := make([]error, n)
	fail := func(i int, err error) {
		errs[i] = fmt.Errorf("workload: %s %d: %w", what, i, err)
	}
	// New and Load take no context, so nothing can cancel a pass; a pass
	// fails only when a worker panics (DESIGN.md §9).
	pass := func(n int, fn func(k int)) error {
		if err := parallel.ForEach(context.TODO(), parallel.Workers(0), n, fn); err != nil {
			return fmt.Errorf("workload: loading queries: %w", err)
		}
		return nil
	}

	toks := make([][]sqlparser.Token, n)
	keys := make([]uint64, n)
	seed := maphash.MakeSeed()
	if err := pass(n, func(i int) {
		if check != nil {
			if errs[i] = check(i); errs[i] != nil {
				return
			}
		}
		t, err := sqlparser.Tokenize(sqls[i])
		if err != nil {
			fail(i, err)
			return
		}
		toks[i], keys[i] = t, shapeKey(seed, t)
	}); err != nil {
		return nil, err
	}

	leader := make([]int, n)
	repeated := make([]bool, n)
	first := make(map[uint64]int)
	var leaders, repeats []int
	for i := range sqls {
		if errs[i] != nil {
			continue
		}
		if j, ok := first[keys[i]]; ok {
			leader[i], repeated[j] = j, true
			repeats = append(repeats, i)
		} else {
			first[keys[i]] = i
			leaders = append(leaders, i)
		}
	}

	shapes := make([]*shape, n)
	if err := pass(len(leaders), func(k int) {
		i := leaders[k]
		var err error
		if repeated[i] {
			qs[i], shapes[i], err = newShape(cat, i, sqls[i], toks[i])
		} else {
			qs[i], err = newQuery(cat, i, sqls[i], toks[i])
		}
		if err != nil {
			fail(i, err)
		}
	}); err != nil {
		return nil, err
	}
	if err := pass(len(repeats), func(k int) {
		i := repeats[k]
		s := shapes[leader[i]]
		if s == nil {
			return // the leader failed, and its error precedes query i's
		}
		var err error
		if qs[i], err = s.instance(i, sqls[i], toks[i]); err != nil {
			fail(i, err)
		}
	}); err != nil {
		return nil, err
	}

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	w.Queries = qs
	return w, nil
}

// NewQuery parses and analyses a single SQL string. It lexes sql once:
// the parser and the template fingerprint read the same tokens.
func NewQuery(cat *catalog.Catalog, id int, sql string) (*Query, error) {
	toks, err := sqlparser.Tokenize(sql)
	if err != nil {
		return nil, err
	}
	return newQuery(cat, id, sql, toks)
}

// newQuery is NewQuery of sql, which lexed to toks.
func newQuery(cat *catalog.Catalog, id int, sql string, toks []sqlparser.Token) (*Query, error) {
	stmt, err := sqlparser.ParseTokens(sql, toks)
	if err != nil {
		return nil, err
	}
	info, err := Analyze(cat, stmt)
	if err != nil {
		return nil, err
	}
	return &Query{
		ID:         id,
		Text:       sql,
		Stmt:       stmt,
		TemplateID: fingerprintTokens(toks),
		Info:       info,
		Weight:     1,
	}, nil
}

// Len returns the number of queries.
func (w *Workload) Len() int { return len(w.Queries) }

// TotalCost returns C(W) = Σ C(q_i).
func (w *Workload) TotalCost() float64 {
	var c float64
	for _, q := range w.Queries {
		c += q.Cost
	}
	return c
}

// Subset returns a new workload containing copies of the queries at the
// given indices. The copies share the parsed AST and analysis (read-only)
// but have independent Weight/Cost fields, so weighting a compressed
// workload never mutates the input workload.
func (w *Workload) Subset(ids []int) *Workload {
	out := &Workload{Catalog: w.Catalog}
	for _, id := range ids {
		if id >= 0 && id < len(w.Queries) {
			cp := *w.Queries[id]
			out.Queries = append(out.Queries, &cp)
		}
	}
	return out
}

// WeightedSubset returns a new workload of query copies with the given
// weights — the shape a compression algorithm hands to the index tuner
// (Problem 1: k queries plus weights w_1..w_k).
func (w *Workload) WeightedSubset(ids []int, weights []float64) *Workload {
	out := w.Subset(ids)
	for i, q := range out.Queries {
		if i < len(weights) && weights[i] > 0 {
			q.Weight = weights[i]
		} else {
			q.Weight = 1
		}
	}
	return out
}

// TablesReferenced returns the number of distinct base tables referenced
// anywhere in the workload.
func (w *Workload) TablesReferenced() int {
	seen := map[string]bool{}
	for _, q := range w.Queries {
		if q.Info == nil {
			continue
		}
		for _, t := range q.Info.Tables {
			seen[t] = true
		}
	}
	return len(seen)
}
