package sqlparser

import "strconv"

// A Template is a parsed statement together with the literal tokens its
// parse consumed. Another statement of the same shape — the same tokens
// but for the texts of its literals — can be bound to it without being
// parsed (DESIGN.md §19).
type Template struct {
	stmt *SelectStmt
	toks []Token
	// lits are the statement's Literal nodes parsed from literal tokens,
	// in token order; NULL, TRUE and FALSE come from keywords and are not
	// among them.
	lits []litSlot
	// fixed are the literal tokens whose values the statement keeps
	// outside a Literal: TOP, LIMIT and OFFSET counts and CAST precisions.
	fixed []int
	// rebindable reports that every literal token is in lits or fixed and
	// that the binder meets lits in token order; Bind fails otherwise.
	rebindable bool
}

// litSlot is one Literal node and the token it was parsed from.
type litSlot struct {
	tok int
	lit *Literal
	// unit is the text an INTERVAL literal appends to its quoted value
	// (" DAY", or "" without a unit).
	unit string
}

// ParseTemplate is ParseTokens that also records which token became each
// Literal, so that the statement can serve as the template of its shape.
func ParseTemplate(sql string, toks []Token) (*Template, error) {
	t := &Template{toks: toks}
	stmt, err := parseTokens(&Parser{toks: toks, src: sql, tmpl: t})
	if err != nil {
		return nil, err
	}
	t.stmt = stmt
	nlit := 0
	for _, tok := range toks {
		if isLiteralToken(tok.Kind) {
			nlit++
		}
	}
	if nlit == len(t.lits)+len(t.fixed) {
		b := binder{t: t, vals: t.Literals()}
		t.rebindable = b.stmt(stmt) == stmt && b.next == len(t.lits)
	}
	return t, nil
}

// Stmt returns the template's statement.
func (t *Template) Stmt() *SelectStmt { return t.stmt }

// Literals returns the template statement's Literal nodes that were
// parsed from literal tokens, in token order.
func (t *Template) Literals() []*Literal {
	out := make([]*Literal, len(t.lits))
	for i, s := range t.lits {
		out[i] = s.lit
	}
	return out
}

// Bind rebinds the template's statement to toks, a statement of the same
// shape, and returns what ParseTokens would return for it. It copies only
// the nodes on the paths from the root to the literals whose values
// differ, and shares every other node, read-only, with the template's
// statement. lits holds, for each of Literals, the node that stands in its
// place in stmt. Bind reports false, and the caller parses toks instead,
// when the shape differs, when a number does not convert, or when a
// literal the parse consumed structurally (a TOP, LIMIT or OFFSET count or
// a CAST precision) has another text.
func (t *Template) Bind(toks []Token) (stmt *SelectStmt, lits []*Literal, ok bool) {
	if lits = t.bindLiterals(toks); lits == nil {
		return nil, nil, false
	}
	b := binder{t: t, vals: lits}
	return b.stmt(t.stmt), lits, true
}

// bindLiterals returns the Literal that each of the template's literal
// slots takes in toks — the template's own where the value is the same —
// or nil when toks cannot be bound to the template.
func (t *Template) bindLiterals(toks []Token) []*Literal {
	if !t.rebindable || len(toks) != len(t.toks) {
		return nil
	}
	for i, tok := range toks {
		if tok.Kind != t.toks[i].Kind || (!isLiteralToken(tok.Kind) && tok.Text != t.toks[i].Text) {
			return nil
		}
	}
	for _, i := range t.fixed {
		if toks[i].Text != t.toks[i].Text {
			return nil
		}
	}
	vals := make([]*Literal, len(t.lits))
	for i, s := range t.lits {
		vals[i] = s.lit
		text := toks[s.tok].Text
		if text == t.toks[s.tok].Text {
			continue // every '?' takes this path
		}
		switch s.lit.Kind {
		case LitNumber:
			v, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil
			}
			if v != s.lit.Num {
				vals[i] = &Literal{Kind: LitNumber, Num: v}
			}
		case LitString:
			vals[i] = &Literal{Kind: LitString, Str: text}
		case LitInterval:
			vals[i] = &Literal{Kind: LitInterval, Str: "'" + text + "'" + s.unit}
		}
	}
	return vals
}

func isLiteralToken(k TokenKind) bool {
	return k == TokenNumber || k == TokenString || k == TokenParam
}

// binder rebuilds a template's statement with vals in place of its
// literal slots. It walks the statement in the order the parser consumed
// the tokens, so the slots come up in token order, and copies a node only
// when one of its children changed.
type binder struct {
	t    *Template
	vals []*Literal
	next int // the slot the walk meets next
}

func (b *binder) literal(l *Literal) *Literal {
	if b.next == len(b.t.lits) || b.t.lits[b.next].lit != l {
		return l // NULL, TRUE or FALSE
	}
	b.next++
	return b.vals[b.next-1]
}

func (b *binder) stmt(s *SelectStmt) *SelectStmt {
	if s == nil {
		return nil
	}
	// Parse order: the WITH list, then the SELECT block's clauses; a UNION
	// arm is parsed before the ORDER BY that follows it.
	with := rebindAll(s.With, func(c CTE) CTE { c.Select = b.stmt(c.Select); return c }, sameCTE)
	items := rebindAll(s.Items, func(it SelectItem) SelectItem { it.Expr = b.expr(it.Expr); return it }, sameItem)
	from := rebindAll(s.From, b.tableRef, same[TableRef])
	where := b.expr(s.Where)
	groupBy := rebindAll(s.GroupBy, b.expr, same[Expr])
	having := b.expr(s.Having)
	union := b.stmt(s.UnionAll)
	orderBy := rebindAll(s.OrderBy, func(o OrderItem) OrderItem { o.Expr = b.expr(o.Expr); return o }, sameOrder)
	if sameSlice(with, s.With) && sameSlice(items, s.Items) && sameSlice(from, s.From) &&
		where == s.Where && sameSlice(groupBy, s.GroupBy) && having == s.Having &&
		union == s.UnionAll && sameSlice(orderBy, s.OrderBy) {
		return s
	}
	c := *s
	c.With, c.Items, c.From, c.Where, c.GroupBy, c.Having, c.UnionAll, c.OrderBy =
		with, items, from, where, groupBy, having, union, orderBy
	return &c
}

func (b *binder) tableRef(tr TableRef) TableRef {
	switch t := tr.(type) {
	case *JoinExpr:
		l, r, on := b.tableRef(t.Left), b.tableRef(t.Right), b.expr(t.On)
		if l == t.Left && r == t.Right && on == t.On {
			return t
		}
		return &JoinExpr{Left: l, Right: r, Type: t.Type, On: on}
	case *SubqueryRef:
		if sel := b.stmt(t.Select); sel != t.Select {
			return &SubqueryRef{Select: sel, Alias: t.Alias}
		}
	}
	return tr
}

func (b *binder) expr(e Expr) Expr {
	switch x := e.(type) {
	case *Literal:
		return b.literal(x)
	case *BinaryExpr:
		if l, r := b.expr(x.L), b.expr(x.R); l != x.L || r != x.R {
			return &BinaryExpr{Op: x.Op, L: l, R: r}
		}
	case *UnaryExpr:
		if y := b.expr(x.X); y != x.X {
			return &UnaryExpr{Op: x.Op, X: y}
		}
	case *FuncCall:
		if args := rebindAll(x.Args, b.expr, same[Expr]); !sameSlice(args, x.Args) {
			c := *x
			c.Args = args
			return &c
		}
	case *InExpr:
		y, list, sub := b.expr(x.X), rebindAll(x.List, b.expr, same[Expr]), b.stmt(x.Subquery)
		if y != x.X || !sameSlice(list, x.List) || sub != x.Subquery {
			return &InExpr{X: y, Not: x.Not, List: list, Subquery: sub}
		}
	case *BetweenExpr:
		if y, lo, hi := b.expr(x.X), b.expr(x.Lo), b.expr(x.Hi); y != x.X || lo != x.Lo || hi != x.Hi {
			return &BetweenExpr{X: y, Not: x.Not, Lo: lo, Hi: hi}
		}
	case *LikeExpr:
		if y, p := b.expr(x.X), b.expr(x.Pattern); y != x.X || p != x.Pattern {
			return &LikeExpr{X: y, Not: x.Not, Pattern: p}
		}
	case *IsNullExpr:
		if y := b.expr(x.X); y != x.X {
			return &IsNullExpr{X: y, Not: x.Not}
		}
	case *ExistsExpr:
		if sub := b.stmt(x.Subquery); sub != x.Subquery {
			return &ExistsExpr{Not: x.Not, Subquery: sub}
		}
	case *SubqueryExpr:
		if sub := b.stmt(x.Select); sub != x.Select {
			return &SubqueryExpr{Select: sub}
		}
	case *QuantifiedExpr:
		if y, sub := b.expr(x.X), b.stmt(x.Subquery); y != x.X || sub != x.Subquery {
			return &QuantifiedExpr{X: y, Op: x.Op, Quantifier: x.Quantifier, Subquery: sub}
		}
	case *CaseExpr:
		op := b.expr(x.Operand)
		whens := rebindAll(x.Whens, func(w WhenClause) WhenClause {
			w.Cond = b.expr(w.Cond)
			w.Result = b.expr(w.Result)
			return w
		}, func(a, b WhenClause) bool { return a == b })
		els := b.expr(x.Else)
		if op != x.Operand || !sameSlice(whens, x.Whens) || els != x.Else {
			return &CaseExpr{Operand: op, Whens: whens, Else: els}
		}
	case *CastExpr:
		if y := b.expr(x.X); y != x.X {
			return &CastExpr{X: y, TypeName: x.TypeName}
		}
	}
	return e
}

// rebindAll applies f to each element of list in order and returns list
// itself when every result is eq to its element, or else a copy holding
// the results.
func rebindAll[T any](list []T, f func(T) T, eq func(a, b T) bool) []T {
	var out []T
	for i, x := range list {
		if y := f(x); out != nil || !eq(x, y) {
			if out == nil {
				out = make([]T, len(list))
				copy(out, list[:i])
			}
			out[i] = y
		}
	}
	if out == nil {
		return list
	}
	return out
}

func same[T comparable](a, b T) bool { return a == b }

func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func sameCTE(a, b CTE) bool         { return a.Select == b.Select }
func sameItem(a, b SelectItem) bool { return a.Expr == b.Expr }
func sameOrder(a, b OrderItem) bool { return a.Expr == b.Expr }
