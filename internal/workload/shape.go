package workload

import (
	"hash/maphash"
	"slices"

	"isum/internal/catalog"
	"isum/internal/sqlparser"
)

// shape is what the instances of one statement shape share within one
// load (DESIGN.md §19): the first instance's template, fingerprint and
// analysis, and the estimates behind the analysis's literal-dependent
// selectivities. Another instance is bound to the template and re-runs
// only those estimates; everything else it shares, read-only.
type shape struct {
	cat        *catalog.Catalog
	tmpl       *sqlparser.Template
	templateID string
	info       *Info
	ests       []estimate
	// slot maps each of the template's literals to its index in
	// tmpl.Literals().
	slot map[*sqlparser.Literal]int
}

// newShape parses and analyses query id, the first instance of its shape,
// whose text sql lexed to toks, and returns the query and its shape.
func newShape(cat *catalog.Catalog, id int, sql string, toks []sqlparser.Token) (*Query, *shape, error) {
	tmpl, err := sqlparser.ParseTemplate(sql, toks)
	if err != nil {
		return nil, nil, err
	}
	a := &analyzer{cat: cat, record: true}
	s := &shape{cat: cat, tmpl: tmpl, templateID: fingerprintTokens(toks), info: a.analyze(tmpl.Stmt()), ests: a.ests}
	flat := 0
	for bi, b := range s.info.Blocks {
		for k := range s.ests {
			if e := &s.ests[k]; e.blk == b {
				e.block, e.flat = bi, flat+e.filter
			}
		}
		flat += len(b.Filters)
	}
	if len(s.ests) > 0 {
		lits := tmpl.Literals()
		s.slot = make(map[*sqlparser.Literal]int, len(lits))
		for i, l := range lits {
			s.slot[l] = i
		}
	}
	return s.query(id, sql, tmpl.Stmt(), s.info), s, nil
}

// instance returns query id, another instance of the shape, whose text sql
// lexed to toks. It parses and analyses the query in full only when the
// template cannot be bound to toks.
func (s *shape) instance(id int, sql string, toks []sqlparser.Token) (*Query, error) {
	stmt, lits, ok := s.tmpl.Bind(toks)
	if !ok {
		return newQuery(s.cat, id, sql, toks)
	}
	return s.query(id, sql, stmt, s.estimate(lits)), nil
}

func (s *shape) query(id int, sql string, stmt *sqlparser.SelectStmt, info *Info) *Query {
	return &Query{ID: id, Text: sql, Stmt: stmt, TemplateID: s.templateID, Info: info, Weight: 1}
}

// estimate returns the analysis of the instance whose literals are lits
// (aligned with the template's Literals): the first instance's, with each
// literal-dependent selectivity estimated again. Blocks, and the Filters
// views, are copied only when a selectivity changes.
func (s *shape) estimate(lits []*sqlparser.Literal) *Info {
	a := &analyzer{cat: s.cat, slot: s.slot, vals: lits}
	info := s.info
	for k := range s.ests {
		e := &s.ests[k]
		sel := a.selectivity(e)
		if sel == s.info.Filters[e.flat].Selectivity {
			continue
		}
		if info == s.info {
			cp := *s.info
			cp.Blocks = slices.Clone(s.info.Blocks)
			cp.Filters = slices.Clone(s.info.Filters)
			info = &cp
		}
		b := info.Blocks[e.block]
		if b == s.info.Blocks[e.block] {
			cb := *b
			cb.Filters = slices.Clone(b.Filters)
			b = &cb
			info.Blocks[e.block] = b
		}
		b.Filters[e.filter].Selectivity = sel
		info.Filters[e.flat].Selectivity = sel
	}
	return info
}

// shapeKey hashes the shape of a lexed statement: its tokens' kinds, and
// their texts but for literals. Instances of one shape share a key.
// Template.Bind checks the shape itself, so a collision costs only a
// parse.
func shapeKey(seed maphash.Seed, toks []sqlparser.Token) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	for _, t := range toks {
		_ = h.WriteByte(byte(t.Kind)) // a maphash.Hash write never fails
		if !isLiteral(t.Kind) {
			_, _ = h.WriteString(t.Text)
			_ = h.WriteByte(0)
		}
	}
	return h.Sum64()
}
