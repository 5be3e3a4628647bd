package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
)

// Node is implemented by every AST node. SQL() renders the node back to
// valid SQL text (used for round-trip testing and template instantiation).
type Node interface {
	SQL() string
}

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	exprNode()
}

// SelectStmt is a full SELECT query (possibly with CTEs).
type SelectStmt struct {
	With       []CTE
	Distinct   bool
	Top        *int64 // SQL Server TOP n
	Items      []SelectItem
	From       []TableRef // comma-separated FROM items (each possibly a join tree)
	Where      Expr
	GroupBy    []Expr
	Having     Expr
	OrderBy    []OrderItem
	Limit      *int64
	Offset     *int64
	UnionAll   *SelectStmt // optional UNION ALL continuation
	UnionDedup bool        // true when UNION (distinct) rather than UNION ALL
}

// CTE is one common table expression in a WITH clause.
type CTE struct {
	Name    string
	Columns []string
	Select  *SelectStmt
}

// SelectItem is one projection in the SELECT list.
type SelectItem struct {
	Expr  Expr   // nil means '*'
	Star  bool   // SELECT * or t.*
	Table string // qualifier for t.*
	Alias string
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// JoinType enumerates join kinds.
type JoinType int

const (
	// JoinInner is an INNER JOIN.
	JoinInner JoinType = iota
	// JoinLeft is a LEFT OUTER JOIN.
	JoinLeft
	// JoinRight is a RIGHT OUTER JOIN.
	JoinRight
	// JoinFull is a FULL OUTER JOIN.
	JoinFull
	// JoinCross is a CROSS JOIN.
	JoinCross
)

// String returns the SQL keyword for the join type.
func (j JoinType) String() string {
	switch j {
	case JoinInner:
		return "JOIN"
	case JoinLeft:
		return "LEFT JOIN"
	case JoinRight:
		return "RIGHT JOIN"
	case JoinFull:
		return "FULL JOIN"
	case JoinCross:
		return "CROSS JOIN"
	default:
		return "JOIN"
	}
}

// TableRef is a FROM-clause item: a base table, a join tree, or a derived
// table.
type TableRef interface {
	Node
	tableRefNode()
}

// BaseTable references a named table with an optional alias.
type BaseTable struct {
	Name  string
	Alias string
}

// JoinExpr is an explicit join between two table references.
type JoinExpr struct {
	Left  TableRef
	Right TableRef
	Type  JoinType
	On    Expr // nil for CROSS JOIN
}

// SubqueryRef is a derived table: (SELECT ...) alias.
type SubqueryRef struct {
	Select *SelectStmt
	Alias  string
}

func (*BaseTable) tableRefNode()   {}
func (*JoinExpr) tableRefNode()    {}
func (*SubqueryRef) tableRefNode() {}

// LiteralKind classifies literal values.
type LiteralKind int

const (
	// LitNumber is a numeric literal.
	LitNumber LiteralKind = iota
	// LitString is a string literal.
	LitString
	// LitNull is NULL.
	LitNull
	// LitBool is TRUE or FALSE.
	LitBool
	// LitParam is a positional parameter '?'.
	LitParam
	// LitInterval is an INTERVAL 'n' UNIT literal.
	LitInterval
)

// ColumnRef references a column, optionally qualified by table or alias.
type ColumnRef struct {
	Qualifier string // table name or alias, may be empty
	Name      string
}

// Literal is a constant value.
type Literal struct {
	Kind LiteralKind
	Num  float64
	Str  string // string value, or interval text
	Bool bool
}

// BinaryExpr is a binary operation: comparisons, arithmetic, AND/OR, ||.
type BinaryExpr struct {
	Op   string // upper-case operator or keyword: =, <>, <, AND, OR, +, ...
	L, R Expr
}

// UnaryExpr is NOT x or -x.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	X  Expr
}

// FuncCall is a function invocation, possibly with DISTINCT or '*'.
type FuncCall struct {
	Name     string // upper-cased
	Distinct bool
	Star     bool
	Args     []Expr
}

// InExpr is x [NOT] IN (list) or x [NOT] IN (subquery).
type InExpr struct {
	X        Expr
	Not      bool
	List     []Expr
	Subquery *SelectStmt
}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	X      Expr
	Not    bool
	Lo, Hi Expr
}

// LikeExpr is x [NOT] LIKE pattern.
type LikeExpr struct {
	X       Expr
	Not     bool
	Pattern Expr
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Not      bool
	Subquery *SelectStmt
}

// SubqueryExpr is a scalar subquery used as an expression.
type SubqueryExpr struct {
	Select *SelectStmt
}

// QuantifiedExpr is x op ANY/ALL/SOME (subquery).
type QuantifiedExpr struct {
	X          Expr
	Op         string // comparison operator
	Quantifier string // ANY, ALL, SOME
	Subquery   *SelectStmt
}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenClause
	Else    Expr
}

// WhenClause is one WHEN/THEN arm of a CASE expression.
type WhenClause struct {
	Cond, Result Expr
}

// CastExpr is CAST(x AS type).
type CastExpr struct {
	X        Expr
	TypeName string
}

func (*ColumnRef) exprNode()      {}
func (*Literal) exprNode()        {}
func (*BinaryExpr) exprNode()     {}
func (*UnaryExpr) exprNode()      {}
func (*FuncCall) exprNode()       {}
func (*InExpr) exprNode()         {}
func (*BetweenExpr) exprNode()    {}
func (*LikeExpr) exprNode()       {}
func (*IsNullExpr) exprNode()     {}
func (*ExistsExpr) exprNode()     {}
func (*SubqueryExpr) exprNode()   {}
func (*QuantifiedExpr) exprNode() {}
func (*CaseExpr) exprNode()       {}
func (*CastExpr) exprNode()       {}

// ---- SQL rendering ----

// SQL renders the statement as SQL text.
// quoteIdent renders an identifier so it re-lexes as a single TokenIdent:
// plain identifiers print bare, anything else (spaces, punctuation,
// keyword collisions) gets quoted. A lexed identifier can never contain
// every quote character, so one of the three forms always applies.
func quoteIdent(s string) string {
	if plainIdent(s) {
		return s
	}
	return quoted(s)
}

func quoted(s string) string {
	switch {
	case !strings.Contains(s, `"`):
		return `"` + s + `"`
	case !strings.Contains(s, "`"):
		return "`" + s + "`"
	default:
		return "[" + s + "]"
	}
}

func quoteIdents(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = quoteIdent(n)
	}
	return out
}

func (s *SelectStmt) SQL() string {
	var sb strings.Builder
	if len(s.With) > 0 {
		sb.WriteString("WITH ")
		for i, cte := range s.With {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(quoteIdent(cte.Name))
			if len(cte.Columns) > 0 {
				sb.WriteString(" (")
				sb.WriteString(strings.Join(quoteIdents(cte.Columns), ", "))
				sb.WriteString(")")
			}
			sb.WriteString(" AS (")
			sb.WriteString(cte.Select.SQL())
			sb.WriteString(")")
		}
		sb.WriteString(" ")
	}
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	if s.Top != nil {
		fmt.Fprintf(&sb, "TOP %d ", *s.Top)
	}
	for i, item := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(item.SQL())
	}
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		for i, tr := range s.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(tr.SQL())
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.SQL())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING ")
		sb.WriteString(s.Having.SQL())
	}
	if s.UnionAll != nil {
		if s.UnionDedup {
			sb.WriteString(" UNION ")
		} else {
			sb.WriteString(" UNION ALL ")
		}
		sb.WriteString(s.UnionAll.SQL())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.SQL())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		fmt.Fprintf(&sb, " LIMIT %d", *s.Limit)
	}
	if s.Offset != nil {
		fmt.Fprintf(&sb, " OFFSET %d", *s.Offset)
	}
	return sb.String()
}

// SQL renders the projection item.
func (i SelectItem) SQL() string {
	var s string
	switch {
	case i.Star && i.Table != "":
		s = quoteIdent(i.Table) + ".*"
	case i.Star:
		s = "*"
	default:
		s = i.Expr.SQL()
	}
	if i.Alias != "" {
		s += " AS " + quoteIdent(i.Alias)
	}
	return s
}

// SQL renders the base table reference.
func (t *BaseTable) SQL() string {
	if t.Alias != "" {
		return quoteIdent(t.Name) + " " + quoteIdent(t.Alias)
	}
	return quoteIdent(t.Name)
}

// SQL renders the join tree.
func (j *JoinExpr) SQL() string {
	s := j.Left.SQL() + " " + j.Type.String() + " " + j.Right.SQL()
	if j.On != nil {
		s += " ON " + j.On.SQL()
	}
	return s
}

// SQL renders the derived table.
func (d *SubqueryRef) SQL() string {
	s := "(" + d.Select.SQL() + ")"
	if d.Alias != "" {
		s += " " + quoteIdent(d.Alias)
	}
	return s
}

// SQL renders the column reference.
func (c *ColumnRef) SQL() string {
	if c.Qualifier != "" {
		return quoteIdent(c.Qualifier) + "." + quoteIdent(c.Name)
	}
	return quoteIdent(c.Name)
}

// SQL renders the literal.
func (l *Literal) SQL() string {
	switch l.Kind {
	case LitNumber:
		return strconv.FormatFloat(l.Num, 'g', -1, 64)
	case LitString:
		return "'" + strings.ReplaceAll(l.Str, "'", "''") + "'"
	case LitNull:
		return "NULL"
	case LitBool:
		if l.Bool {
			return "TRUE"
		}
		return "FALSE"
	case LitParam:
		return "?"
	case LitInterval:
		return "INTERVAL " + l.Str
	default:
		return "NULL"
	}
}

// SQL renders the binary expression with minimal parentheses: operands that
// are themselves binary/unary get wrapped, which keeps round-trips stable.
func (b *BinaryExpr) SQL() string {
	return wrapOperand(b.L) + " " + b.Op + " " + wrapOperand(b.R)
}

func wrapOperand(e Expr) string {
	switch e.(type) {
	case *BinaryExpr, *UnaryExpr:
		return "(" + e.SQL() + ")"
	default:
		return e.SQL()
	}
}

// SQL renders the unary expression. A chain of one prefix operator prints
// flat ("NOT NOT x", "- -x"), so printing adds no nesting levels to it.
func (u *UnaryExpr) SQL() string {
	if x, ok := u.X.(*UnaryExpr); ok && x.Op == u.Op {
		return u.Op + " " + x.SQL()
	}
	if u.Op == "NOT" {
		return "NOT " + wrapOperand(u.X)
	}
	return u.Op + wrapOperand(u.X)
}

// SQL renders the function call.
func (f *FuncCall) SQL() string {
	// Function names print bare when they re-lex as one word — keywords
	// included, so COUNT stays COUNT — and quoted otherwise ("a b"(x) is a
	// legal call with a quoted name).
	name := f.Name
	if !plainWord(name) {
		name = quoted(name)
	}
	if f.Star {
		return name + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.SQL()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return name + "(" + d + strings.Join(args, ", ") + ")"
}

// SQL renders the IN expression.
func (in *InExpr) SQL() string {
	s := wrapOperand(in.X)
	if in.Not {
		s += " NOT"
	}
	s += " IN ("
	if in.Subquery != nil {
		s += in.Subquery.SQL()
	} else {
		parts := make([]string, len(in.List))
		for i, e := range in.List {
			parts[i] = e.SQL()
		}
		s += strings.Join(parts, ", ")
	}
	return s + ")"
}

// SQL renders the BETWEEN expression.
func (b *BetweenExpr) SQL() string {
	s := wrapOperand(b.X)
	if b.Not {
		s += " NOT"
	}
	return s + " BETWEEN " + wrapOperand(b.Lo) + " AND " + wrapOperand(b.Hi)
}

// SQL renders the LIKE expression.
func (l *LikeExpr) SQL() string {
	s := wrapOperand(l.X)
	if l.Not {
		s += " NOT"
	}
	return s + " LIKE " + l.Pattern.SQL()
}

// SQL renders the IS NULL expression.
func (n *IsNullExpr) SQL() string {
	s := wrapOperand(n.X) + " IS "
	if n.Not {
		s += "NOT "
	}
	return s + "NULL"
}

// SQL renders the EXISTS expression.
func (e *ExistsExpr) SQL() string {
	s := ""
	if e.Not {
		s = "NOT "
	}
	return s + "EXISTS (" + e.Subquery.SQL() + ")"
}

// SQL renders the scalar subquery.
func (s *SubqueryExpr) SQL() string { return "(" + s.Select.SQL() + ")" }

// SQL renders the quantified comparison.
func (q *QuantifiedExpr) SQL() string {
	return wrapOperand(q.X) + " " + q.Op + " " + q.Quantifier + " (" + q.Subquery.SQL() + ")"
}

// SQL renders the CASE expression.
func (c *CaseExpr) SQL() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	if c.Operand != nil {
		sb.WriteString(" " + c.Operand.SQL())
	}
	for _, w := range c.Whens {
		sb.WriteString(" WHEN " + w.Cond.SQL() + " THEN " + w.Result.SQL())
	}
	if c.Else != nil {
		sb.WriteString(" ELSE " + c.Else.SQL())
	}
	sb.WriteString(" END")
	return sb.String()
}

// SQL renders the CAST expression.
func (c *CastExpr) SQL() string {
	return "CAST(" + c.X.SQL() + " AS " + c.TypeName + ")"
}
