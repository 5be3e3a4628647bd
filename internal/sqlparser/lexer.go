// Package sqlparser implements a hand-written lexer and recursive-descent
// parser for the SQL subset used by the TPC-H-, TPC-DS-, DSB-, and
// Real-M-style workloads in this repository: SELECT queries with joins
// (explicit and comma syntax), WHERE predicates (AND/OR/NOT, comparison,
// IN, BETWEEN, LIKE, IS NULL, EXISTS), scalar and relational subqueries,
// CTEs, GROUP BY/HAVING, ORDER BY, and LIMIT/TOP.
//
// The parser produces an AST (ast.go) that the workload analyser binds
// against a catalog to extract indexable columns — the feature space of the
// ISUM paper (Section 4.2).
package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies lexical tokens.
type TokenKind int

const (
	// TokenEOF marks the end of input.
	TokenEOF TokenKind = iota
	// TokenIdent is an identifier or non-reserved word.
	TokenIdent
	// TokenKeyword is a reserved word (SELECT, FROM, ...).
	TokenKeyword
	// TokenNumber is a numeric literal.
	TokenNumber
	// TokenString is a single-quoted string literal.
	TokenString
	// TokenOp is an operator (=, <>, <=, +, ...).
	TokenOp
	// TokenPunct is punctuation: ( ) , . ;
	TokenPunct
	// TokenParam is a positional parameter marker '?'.
	TokenParam
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; identifiers keep original case
	Pos  int    // byte offset in the input
}

// keywords maps each reserved word to itself: the text a keyword token
// carries, so classifying a word need not build its upper-case copy.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, kw := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY",
		"HAVING", "ORDER", "LIMIT", "OFFSET", "TOP",
		"AS", "ON", "AND", "OR", "NOT", "IN",
		"BETWEEN", "LIKE", "IS", "NULL", "EXISTS",
		"JOIN", "INNER", "LEFT", "RIGHT", "FULL",
		"OUTER", "CROSS", "DISTINCT", "ALL", "ANY",
		"SOME", "UNION", "CASE", "WHEN", "THEN",
		"ELSE", "END", "ASC", "DESC", "WITH",
		"TRUE", "FALSE", "CAST", "INTERVAL",
		"SUBSTRING", "EXTRACT",
	} {
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword, SUBSTRING.
const maxKeywordLen = 9

// keyword reports whether word is a keyword in any case, and returns the
// keyword's upper-case text. It classifies every word exactly as a lookup
// of strings.ToUpper(word) in keywords would, without allocating.
// strings.ToUpper maps each rune through unicode.ToUpper (an invalid byte
// becomes U+FFFD), and a keyword is at most maxKeywordLen ASCII letters.
// So word can match only if each of its runes upper-cases to one ASCII
// byte, some non-ASCII ones included (ſ → S, ı → I), and it has at most
// maxKeywordLen runes; those bytes are the upper-case word.
func keyword(word string) (string, bool) {
	var buf [maxKeywordLen]byte
	n := 0
	for _, r := range word {
		if n == maxKeywordLen {
			return "", false
		}
		if r >= utf8.RuneSelf {
			if r = unicode.ToUpper(r); r >= utf8.RuneSelf {
				return "", false
			}
		} else if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		buf[n] = byte(r)
		n++
	}
	kw, ok := keywords[string(buf[:n])]
	return kw, ok
}

// Lexer tokenises SQL text.
type Lexer struct {
	input string
	pos   int
}

// NewLexer returns a lexer over the given SQL text.
func NewLexer(input string) *Lexer { return &Lexer{input: input} }

// Tokenize consumes the entire input and returns all tokens (excluding EOF),
// or the first lexical error.
func Tokenize(input string) ([]Token, error) {
	lx := NewLexer(input)
	// The generators' SQL runs 3.5–9 bytes a token, so this holds each of
	// their statements in one allocation; denser text grows by append.
	out := make([]Token, 0, len(input)/4+8)
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if tok.Kind == TokenEOF {
			return out, nil
		}
		out = append(out, tok)
	}
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	lx.skipSpaceAndComments()
	if lx.pos >= len(lx.input) {
		return Token{Kind: TokenEOF, Pos: lx.pos}, nil
	}
	start := lx.pos
	ch := lx.input[lx.pos]
	r, rsize := utf8.DecodeRuneInString(lx.input[lx.pos:])

	switch {
	case isIdentStart(r) && validRune(r, rsize):
		lx.pos += rsize
		for lx.pos < len(lx.input) {
			r2, s2 := utf8.DecodeRuneInString(lx.input[lx.pos:])
			if !isIdentPart(r2) || !validRune(r2, s2) {
				break
			}
			lx.pos += s2
		}
		word := lx.input[start:lx.pos]
		if kw, ok := keyword(word); ok {
			return Token{Kind: TokenKeyword, Text: kw, Pos: start}, nil
		}
		return Token{Kind: TokenIdent, Text: word, Pos: start}, nil

	case ch >= '0' && ch <= '9':
		return lx.lexNumber(start)

	case ch == '.':
		// Could be ".5" (number) or a qualifier dot.
		if lx.pos+1 < len(lx.input) && lx.input[lx.pos+1] >= '0' && lx.input[lx.pos+1] <= '9' {
			return lx.lexNumber(start)
		}
		lx.pos++
		return Token{Kind: TokenPunct, Text: ".", Pos: start}, nil

	case ch == '\'':
		return lx.lexString(start)

	case ch == '"' || ch == '`':
		return lx.lexQuotedIdent(start, ch)

	case ch == '[':
		return lx.lexQuotedIdent(start, ']') // SQL Server style [ident]

	case ch == '?':
		lx.pos++
		return Token{Kind: TokenParam, Text: "?", Pos: start}, nil

	case ch == '(' || ch == ')' || ch == ',' || ch == ';':
		lx.pos++
		return Token{Kind: TokenPunct, Text: lx.input[start:lx.pos], Pos: start}, nil

	default:
		return lx.lexOperator(start)
	}
}

func (lx *Lexer) lexNumber(start int) (Token, error) {
	seenDot, seenExp := false, false
	for lx.pos < len(lx.input) {
		c := lx.input[lx.pos]
		switch {
		case c >= '0' && c <= '9':
			lx.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			lx.pos++
		case (c == 'e' || c == 'E') && !seenExp && lx.pos > start:
			seenExp = true
			lx.pos++
			if lx.pos < len(lx.input) && (lx.input[lx.pos] == '+' || lx.input[lx.pos] == '-') {
				lx.pos++
			}
		default:
			return Token{Kind: TokenNumber, Text: lx.input[start:lx.pos], Pos: start}, nil
		}
	}
	return Token{Kind: TokenNumber, Text: lx.input[start:lx.pos], Pos: start}, nil
}

func (lx *Lexer) lexString(start int) (Token, error) {
	lx.pos++ // opening quote
	// A literal without '' escapes is its source text; only an escaped one
	// is copied, into sb.
	var sb strings.Builder
	from := lx.pos // start of the text not yet copied into sb
	for lx.pos < len(lx.input) {
		if lx.input[lx.pos] != '\'' {
			lx.pos++
			continue
		}
		if lx.pos+1 < len(lx.input) && lx.input[lx.pos+1] == '\'' {
			sb.WriteString(lx.input[from : lx.pos+1])
			lx.pos += 2
			from = lx.pos
			continue
		}
		text := lx.input[from:lx.pos]
		if sb.Len() > 0 {
			sb.WriteString(text)
			text = sb.String()
		}
		lx.pos++
		return Token{Kind: TokenString, Text: text, Pos: start}, nil
	}
	return Token{}, fmt.Errorf("sqlparser: unterminated string literal at offset %d", start)
}

func (lx *Lexer) lexQuotedIdent(start int, closer byte) (Token, error) {
	open := lx.input[lx.pos]
	if open == '[' {
		closer = ']'
	} else {
		closer = open
	}
	lx.pos++
	idStart := lx.pos
	for lx.pos < len(lx.input) {
		if lx.input[lx.pos] == closer {
			text := lx.input[idStart:lx.pos]
			lx.pos++
			if text == "" {
				return Token{}, fmt.Errorf("sqlparser: empty quoted identifier at offset %d", start)
			}
			return Token{Kind: TokenIdent, Text: text, Pos: start}, nil
		}
		lx.pos++
	}
	return Token{}, fmt.Errorf("sqlparser: unterminated quoted identifier at offset %d", start)
}

// plainIdent reports whether s lexes bare as exactly one TokenIdent: a
// non-empty identifier that is not a keyword.
func plainIdent(s string) bool {
	_, kw := keyword(s)
	return plainWord(s) && !kw
}

// plainWord reports whether s lexes bare as a single ident-or-keyword
// token (identifier characters only, valid UTF-8).
func plainWord(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if !validRune(r, size) {
			return false
		}
		if i == 0 {
			if !isIdentStart(r) {
				return false
			}
		} else if !isIdentPart(r) {
			return false
		}
		i += size
	}
	return true
}

func (lx *Lexer) lexOperator(start int) (Token, error) {
	two := ""
	if lx.pos+2 <= len(lx.input) {
		two = lx.input[lx.pos : lx.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=", "||":
		lx.pos += 2
		return Token{Kind: TokenOp, Text: two, Pos: start}, nil
	}
	one := lx.input[lx.pos]
	switch one {
	case '=', '<', '>', '+', '-', '*', '/', '%':
		lx.pos++
		return Token{Kind: TokenOp, Text: lx.input[start:lx.pos], Pos: start}, nil
	}
	return Token{}, fmt.Errorf("sqlparser: unexpected character %q at offset %d", one, start)
}

func (lx *Lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.input) {
		c := lx.input[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			lx.pos++
		case c == '-' && lx.pos+1 < len(lx.input) && lx.input[lx.pos+1] == '-':
			for lx.pos < len(lx.input) && lx.input[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.pos+1 < len(lx.input) && lx.input[lx.pos+1] == '*':
			lx.pos += 2
			for lx.pos+1 < len(lx.input) && !(lx.input[lx.pos] == '*' && lx.input[lx.pos+1] == '/') {
				lx.pos++
			}
			lx.pos += 2
			if lx.pos > len(lx.input) {
				lx.pos = len(lx.input)
			}
		default:
			return
		}
	}
}

// validRune rejects bytes that are not valid UTF-8: DecodeRuneInString
// reports those as a RuneError of size 1. Treating them as Latin-1 letters
// would admit identifiers that no longer survive ToUpper or reprinting.
func validRune(r rune, size int) bool {
	return r != utf8.RuneError || size > 1
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '$' || r == '#'
}
