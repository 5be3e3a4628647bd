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
	// Stmt is the parsed AST.
	Stmt *sqlparser.SelectStmt
	// Cost is the optimizer-estimated cost C(q) under the current physical
	// design, provided as part of the input workload (Section 2.2).
	Cost float64
	// TemplateID fingerprints the query modulo literal values; instances of
	// the same prepared statement share a TemplateID.
	TemplateID string
	// Info is the bound analysis against the catalog.
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
	return build(cat, len(sqls), func(i int) (*Query, error) {
		q, err := NewQuery(cat, i, sqls[i])
		if err != nil {
			return nil, fmt.Errorf("workload: query %d: %w", i, err)
		}
		return q, nil
	})
}

// build is the loader behind New and Load. It runs newQuery(i) for every
// i in [0, n) on the worker pool, each result into its own slot, then
// returns the queries in index order or the error of the lowest failing
// index. Parsing writes nothing shared, and catalog and analyser reads are
// read-only (DESIGN.md §7), so the workload and the error do not depend
// on the worker count.
func build(cat *catalog.Catalog, n int, newQuery func(i int) (*Query, error)) (*Workload, error) {
	w := &Workload{Catalog: cat}
	if n == 0 {
		return w, nil
	}
	qs := make([]*Query, n)
	errs := make([]error, n)
	// New and Load take no context, so nothing can cancel the batch.
	if err := parallel.ForEach(context.TODO(), parallel.Workers(0), n, func(i int) {
		qs[i], errs[i] = newQuery(i)
	}); err != nil {
		return nil, fmt.Errorf("workload: loading queries: %w", err)
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
