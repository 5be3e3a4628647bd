package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
)

// maxDepth bounds how deeply expressions and SELECTs may nest:
// parenthesised expressions, function arguments, subqueries, UNION arms,
// parenthesised table references and prefix NOT/sign operators each take
// one level. The parser recurses once per level, and a goroutine stack
// overflow is fatal rather than a recoverable panic, so without a bound
// one adversarial statement (10⁶ nested parentheses) would kill the whole
// process instead of failing with a positioned error. SQL() parenthesises
// nested operators, so a statement within a few levels of the bound can
// print to text that nests past it.
const maxDepth = 1000

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	toks  []Token
	pos   int
	src   string
	depth int // current nesting, bounded by maxDepth
	// tmpl, when set, records the literal tokens the parse consumes
	// (ParseTemplate).
	tmpl *Template
}

// Parse parses a single SELECT statement (optionally terminated by ';').
func Parse(sql string) (*SelectStmt, error) {
	toks, err := Tokenize(sql)
	if err != nil {
		return nil, err
	}
	return ParseTokens(sql, toks)
}

// ParseTokens is Parse over tokens the caller already lexed: toks must be
// Tokenize(sql). A caller that needs the tokens too, such as a template
// fingerprint, lexes each statement once. The parser only reads toks.
func ParseTokens(sql string, toks []Token) (*SelectStmt, error) {
	return parseTokens(&Parser{toks: toks, src: sql})
}

func parseTokens(p *Parser) (*SelectStmt, error) {
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptPunct(";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().Text)
	}
	return stmt, nil
}

// MustParse parses sql and panics on error; intended for statically-known
// template text in the benchmark generators and tests.
func MustParse(sql string) *SelectStmt {
	s, err := Parse(sql)
	if err != nil {
		panic(fmt.Sprintf("sqlparser.MustParse(%q): %v", sql, err))
	}
	return s
}

func (p *Parser) parseStatement() (*SelectStmt, error) {
	var ctes []CTE
	if p.acceptKeyword("WITH") {
		for {
			cte, err := p.parseCTE()
			if err != nil {
				return nil, err
			}
			ctes = append(ctes, cte)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	stmt.With = ctes
	return stmt, nil
}

func (p *Parser) parseCTE() (CTE, error) {
	name, err := p.expectIdent()
	if err != nil {
		return CTE{}, err
	}
	var cols []string
	if p.acceptPunct("(") {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return CTE{}, err
			}
			cols = append(cols, c)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return CTE{}, err
		}
	}
	if !p.acceptKeyword("AS") {
		return CTE{}, p.errorf("expected AS in CTE definition")
	}
	if err := p.expectPunct("("); err != nil {
		return CTE{}, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return CTE{}, err
	}
	if err := p.expectPunct(")"); err != nil {
		return CTE{}, err
	}
	return CTE{Name: name, Columns: cols, Select: sel}, nil
}

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	if !p.acceptKeyword("SELECT") {
		return nil, p.errorf("expected SELECT, got %q", p.peek().Text)
	}
	stmt := &SelectStmt{}
	if p.acceptKeyword("DISTINCT") {
		stmt.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	if p.acceptKeyword("TOP") {
		n, err := p.expectInt()
		if err != nil {
			return nil, err
		}
		stmt.Top = &n
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.acceptPunct(",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		for {
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			stmt.From = append(stmt.From, tr)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if !p.acceptKeyword("BY") {
			return nil, p.errorf("expected BY after GROUP")
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}
	if p.acceptKeyword("UNION") {
		dedup := !p.acceptKeyword("ALL")
		next, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		stmt.UnionAll = next
		stmt.UnionDedup = dedup
	}
	if p.acceptKeyword("ORDER") {
		if !p.acceptKeyword("BY") {
			return nil, p.errorf("expected BY after ORDER")
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.expectInt()
		if err != nil {
			return nil, err
		}
		stmt.Limit = &n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.expectInt()
		if err != nil {
			return nil, err
		}
		stmt.Offset = &n
	}
	return stmt, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	// '*' or 't.*'
	if p.peekOp("*") {
		p.next()
		return SelectItem{Star: true}, nil
	}
	if dot, star := p.peekAt(1), p.peekAt(2); p.peek().Kind == TokenIdent &&
		dot.Kind == TokenPunct && dot.Text == "." && star.Kind == TokenOp && star.Text == "*" {
		tbl := p.next().Text
		p.next() // .
		p.next() // *
		return SelectItem{Star: true, Table: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.peek().Kind == TokenIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	left, err := p.parsePrimaryTableRef()
	if err != nil {
		return nil, err
	}
	for {
		jt, isJoin := p.peekJoin()
		if !isJoin {
			return left, nil
		}
		p.consumeJoinKeywords()
		right, err := p.parsePrimaryTableRef()
		if err != nil {
			return nil, err
		}
		join := &JoinExpr{Left: left, Right: right, Type: jt}
		if jt != JoinCross {
			if !p.acceptKeyword("ON") {
				return nil, p.errorf("expected ON after %s", jt)
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			join.On = cond
		}
		left = join
	}
}

// peekJoin reports whether the upcoming tokens start a join clause, and
// which kind.
func (p *Parser) peekJoin() (JoinType, bool) {
	t := p.peek()
	if t.Kind != TokenKeyword {
		return 0, false
	}
	switch t.Text {
	case "JOIN", "INNER":
		return JoinInner, true
	case "LEFT":
		return JoinLeft, true
	case "RIGHT":
		return JoinRight, true
	case "FULL":
		return JoinFull, true
	case "CROSS":
		return JoinCross, true
	}
	return 0, false
}

func (p *Parser) consumeJoinKeywords() {
	switch p.peek().Text {
	case "JOIN":
		p.next()
	case "INNER", "CROSS":
		p.next()
		p.acceptKeyword("JOIN")
	case "LEFT", "RIGHT", "FULL":
		p.next()
		p.acceptKeyword("OUTER")
		p.acceptKeyword("JOIN")
	}
}

func (p *Parser) parsePrimaryTableRef() (TableRef, error) {
	if p.acceptPunct("(") {
		// Derived table or parenthesised join tree.
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer p.unnest()
		if p.peekKeyword("SELECT") || p.peekKeyword("WITH") {
			sel, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			alias := ""
			p.acceptKeyword("AS")
			if p.peek().Kind == TokenIdent {
				alias = p.next().Text
			}
			return &SubqueryRef{Select: sel, Alias: alias}, nil
		}
		inner, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	bt := &BaseTable{Name: name}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		bt.Alias = a
	} else if p.peek().Kind == TokenIdent {
		bt.Alias = p.next().Text
	}
	return bt, nil
}

// ---- expressions ----

func (p *Parser) parseExpr() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	e, err := p.parseOr()
	p.unnest()
	return e, err
}

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer p.unnest()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parsePredicate()
}

func (p *Parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	not := p.acceptKeyword("NOT")
	switch {
	case p.acceptKeyword("IN"):
		return p.parseInTail(left, not)
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if !p.acceptKeyword("AND") {
			return nil, p.errorf("expected AND in BETWEEN")
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: left, Not: not, Lo: lo, Hi: hi}, nil
	case p.acceptKeyword("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{X: left, Not: not, Pattern: pat}, nil
	case not:
		return nil, p.errorf("expected IN, BETWEEN, or LIKE after NOT")
	case p.acceptKeyword("IS"):
		n := p.acceptKeyword("NOT")
		if !p.acceptKeyword("NULL") {
			return nil, p.errorf("expected NULL after IS")
		}
		return &IsNullExpr{X: left, Not: n}, nil
	}
	if op, ok := p.peekComparison(); ok {
		p.next()
		// Quantified comparison: op ANY/ALL/SOME (subquery)
		if q := p.peek().Text; p.peek().Kind == TokenKeyword && (q == "ANY" || q == "ALL" || q == "SOME") {
			p.next()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			sub, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &QuantifiedExpr{X: left, Op: op, Quantifier: q, Subquery: sub}, nil
		}
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: op, L: left, R: right}, nil
	}
	return left, nil
}

func (p *Parser) parseInTail(left Expr, not bool) (Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if p.peekKeyword("SELECT") || p.peekKeyword("WITH") {
		sub, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &InExpr{X: left, Not: not, Subquery: sub}, nil
	}
	var list []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &InExpr{X: left, Not: not, List: list}, nil
}

func (p *Parser) peekComparison() (string, bool) {
	t := p.peek()
	if t.Kind != TokenOp {
		return "", false
	}
	switch t.Text {
	case "=", "<", ">", "<=", ">=", "<>", "!=":
		op := t.Text
		if op == "!=" {
			op = "<>"
		}
		return op, true
	}
	return "", false
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == TokenOp && (t.Text == "+" || t.Text == "-" || t.Text == "||") {
			p.next()
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.Text, L: left, R: right}
			continue
		}
		return left, nil
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == TokenOp && (t.Text == "*" || t.Text == "/" || t.Text == "%") {
			p.next()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.Text, L: left, R: right}
			continue
		}
		return left, nil
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.peek()
	if t.Kind == TokenOp && (t.Text == "-" || t.Text == "+") {
		p.next()
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer p.unnest()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if t.Text == "+" {
			return x, nil
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokenNumber:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errorf("bad number %q: %v", t.Text, err)
		}
		return p.literal(p.pos-1, &Literal{Kind: LitNumber, Num: v}, ""), nil
	case TokenString:
		p.next()
		return p.literal(p.pos-1, &Literal{Kind: LitString, Str: t.Text}, ""), nil
	case TokenParam:
		p.next()
		return p.literal(p.pos-1, &Literal{Kind: LitParam}, ""), nil
	case TokenKeyword:
		return p.parseKeywordPrimary()
	case TokenIdent:
		return p.parseIdentPrimary()
	case TokenPunct:
		if t.Text == "(" {
			p.next()
			if p.peekKeyword("SELECT") || p.peekKeyword("WITH") {
				sub, err := p.parseStatement()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Select: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q in expression", t.Text)
}

func (p *Parser) parseKeywordPrimary() (Expr, error) {
	t := p.peek()
	switch t.Text {
	case "NULL":
		p.next()
		return &Literal{Kind: LitNull}, nil
	case "TRUE", "FALSE":
		p.next()
		return &Literal{Kind: LitBool, Bool: t.Text == "TRUE"}, nil
	case "EXISTS":
		p.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		sub, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &ExistsExpr{Subquery: sub}, nil
	case "NOT":
		p.next()
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer p.unnest()
		x, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	case "CASE":
		return p.parseCase()
	case "CAST":
		p.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.acceptKeyword("AS") {
			return nil, p.errorf("expected AS in CAST")
		}
		tn, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &CastExpr{X: x, TypeName: tn}, nil
	case "INTERVAL":
		p.next()
		lit := p.peek()
		if lit.Kind != TokenString && lit.Kind != TokenNumber {
			return nil, p.errorf("expected literal after INTERVAL")
		}
		tok := p.pos
		p.next()
		unit := ""
		if p.peek().Kind == TokenIdent {
			unit = " " + p.next().Text
		}
		return p.literal(tok, &Literal{Kind: LitInterval, Str: "'" + lit.Text + "'" + unit}, unit), nil
	case "SUBSTRING":
		p.next()
		return p.parseSubstring()
	case "EXTRACT":
		p.next()
		return p.parseExtract()
	}
	return nil, p.errorf("unexpected keyword %q in expression", t.Text)
}

// parseSubstring handles both SUBSTRING(x FROM a FOR b) and
// SUBSTRING(x, a, b).
func (p *Parser) parseSubstring() (Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	args := []Expr{x}
	if p.acceptKeyword("FROM") {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.peek().Kind == TokenIdent && strings.EqualFold(p.peek().Text, "FOR") {
			p.next()
			b, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, b)
		}
	} else {
		for p.acceptPunct(",") {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &FuncCall{Name: "SUBSTRING", Args: args}, nil
}

// parseExtract handles EXTRACT(unit FROM expr).
func (p *Parser) parseExtract() (Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	unitTok := p.peek()
	if unitTok.Kind != TokenIdent && unitTok.Kind != TokenKeyword {
		return nil, p.errorf("expected unit in EXTRACT")
	}
	p.next()
	if !p.acceptKeyword("FROM") {
		return nil, p.errorf("expected FROM in EXTRACT")
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &FuncCall{Name: "EXTRACT_" + strings.ToUpper(unitTok.Text), Args: []Expr{x}}, nil
}

func (p *Parser) parseCase() (Expr, error) {
	p.next() // CASE
	ce := &CaseExpr{}
	if !p.peekKeyword("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.acceptKeyword("THEN") {
			return nil, p.errorf("expected THEN in CASE")
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, WhenClause{Cond: cond, Result: res})
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if !p.acceptKeyword("END") {
		return nil, p.errorf("expected END in CASE")
	}
	if len(ce.Whens) == 0 {
		return nil, p.errorf("CASE with no WHEN clauses")
	}
	return ce, nil
}

func (p *Parser) parseTypeName() (string, error) {
	t := p.peek()
	if t.Kind != TokenIdent && t.Kind != TokenKeyword {
		return "", p.errorf("expected type name, got %q", t.Text)
	}
	p.next()
	name := t.Text
	if p.acceptPunct("(") {
		n, err := p.expectInt()
		if err != nil {
			return "", err
		}
		name += "(" + strconv.FormatInt(n, 10)
		if p.acceptPunct(",") {
			m, err := p.expectInt()
			if err != nil {
				return "", err
			}
			name += "," + strconv.FormatInt(m, 10)
		}
		if err := p.expectPunct(")"); err != nil {
			return "", err
		}
		name += ")"
	}
	return name, nil
}

func (p *Parser) parseIdentPrimary() (Expr, error) {
	name := p.next().Text
	// Function call?
	if p.peek().Text == "(" && p.peek().Kind == TokenPunct {
		p.next()
		fc := &FuncCall{Name: strings.ToUpper(name)}
		if p.peekOp("*") {
			p.next()
			fc.Star = true
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		if p.acceptKeyword("DISTINCT") {
			fc.Distinct = true
		}
		if !p.peekPunct(")") {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fc.Args = append(fc.Args, a)
				if !p.acceptPunct(",") {
					break
				}
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	// Qualified column?
	if p.peek().Kind == TokenPunct && p.peek().Text == "." {
		p.next()
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Qualifier: name, Name: col}, nil
	}
	return &ColumnRef{Name: name}, nil
}

// ---- token helpers ----

func (p *Parser) peek() Token { return p.peekAt(0) }

func (p *Parser) peekAt(n int) Token {
	if p.pos+n >= len(p.toks) {
		return Token{Kind: TokenEOF, Pos: len(p.src)}
	}
	return p.toks[p.pos+n]
}

func (p *Parser) next() Token {
	t := p.peek()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}

func (p *Parser) atEOF() bool { return p.peek().Kind == TokenEOF }

func (p *Parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokenKeyword && t.Text == kw
}

func (p *Parser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) peekPunct(s string) bool {
	t := p.peek()
	return t.Kind == TokenPunct && t.Text == s
}

func (p *Parser) peekOp(s string) bool {
	t := p.peek()
	return t.Kind == TokenOp && t.Text == s
}

func (p *Parser) acceptPunct(s string) bool {
	if p.peekPunct(s) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errorf("expected %q, got %q", s, p.peek().Text)
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind != TokenIdent {
		return "", p.errorf("expected identifier, got %q", t.Text)
	}
	p.next()
	return t.Text, nil
}

func (p *Parser) expectInt() (int64, error) {
	t := p.peek()
	if t.Kind != TokenNumber {
		return 0, p.errorf("expected integer, got %q", t.Text)
	}
	p.next()
	if p.tmpl != nil {
		p.tmpl.fixed = append(p.tmpl.fixed, p.pos-1)
	}
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		f, ferr := strconv.ParseFloat(t.Text, 64)
		if ferr != nil {
			return 0, p.errorf("bad integer %q", t.Text)
		}
		n = int64(f)
	}
	return n, nil
}

// literal returns l, the Literal parsed from token tok, after recording
// it for a template; unit is what an INTERVAL literal adds to its value.
func (p *Parser) literal(tok int, l *Literal, unit string) *Literal {
	if p.tmpl != nil {
		p.tmpl.lits = append(p.tmpl.lits, litSlot{tok: tok, lit: l, unit: unit})
	}
	return l
}

// nest enters one nesting level, failing past maxDepth; every successful
// call is paired with a deferred unnest.
func (p *Parser) nest() error {
	if p.depth >= maxDepth {
		return p.errorf("nesting deeper than %d levels", maxDepth)
	}
	p.depth++
	return nil
}

func (p *Parser) unnest() { p.depth-- }

func (p *Parser) errorf(format string, args ...any) error {
	pos := p.peek().Pos
	return fmt.Errorf("sqlparser: %s (at offset %d)", fmt.Sprintf(format, args...), pos)
}
