package sqlparser

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizeBasicSelect(t *testing.T) {
	toks, err := Tokenize("SELECT a, b FROM t WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SELECT", "a", ",", "b", "FROM", "t", "WHERE", "a", "=", "1"}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %+v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Text != w {
			t.Fatalf("token %d = %q, want %q", i, toks[i].Text, w)
		}
	}
}

func TestTokenizeKeywordsCaseInsensitive(t *testing.T) {
	toks, err := Tokenize("select From WhErE")
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if tok.Kind != TokenKeyword {
			t.Fatalf("%q should be a keyword", tok.Text)
		}
	}
	if toks[0].Text != "SELECT" {
		t.Fatalf("keywords should be upper-cased, got %q", toks[0].Text)
	}

	for kw := range keywords {
		if got, ok := keyword(strings.ToLower(kw)); !ok || got != kw || len(kw) > maxKeywordLen {
			t.Errorf("keyword %q: classified as %q, %v (maxKeywordLen %d)", kw, got, ok, maxKeywordLen)
		}
	}

	// A word is a keyword exactly when strings.ToUpper makes it one, and
	// that includes non-ASCII letters that upper-case to ASCII: ſ (U+017F)
	// to S and ı (U+0131) to I.
	cases := []struct {
		word string
		kind TokenKind
		text string
	}{
		{"ſelect", TokenKeyword, "SELECT"},
		{"dıstınct", TokenKeyword, "DISTINCT"},
		{"ſUBſTRıNG", TokenKeyword, "SUBSTRING"},
		{"sUbStRiNg", TokenKeyword, "SUBSTRING"},
		{"InTeRvAl", TokenKeyword, "INTERVAL"},
		{"substrings", TokenIdent, "substrings"}, // longer than any keyword
		{"selectſ", TokenIdent, "selectſ"},
		{"ſ", TokenIdent, "ſ"},
		{"séléct", TokenIdent, "séléct"},
		{"SELECT_", TokenIdent, "SELECT_"},
		{"\u212Aelvin", TokenIdent, "\u212Aelvin"}, // the Kelvin sign is already upper case
	}
	for _, c := range cases {
		toks, err := Tokenize(c.word)
		if err != nil {
			t.Fatalf("%q: %v", c.word, err)
		}
		if len(toks) != 1 || toks[0].Kind != c.kind || toks[0].Text != c.text {
			t.Errorf("%q lexed to %+v, want kind %v text %q", c.word, toks, c.kind, c.text)
		}
		if _, isKw := keywords[strings.ToUpper(c.word)]; isKw != (c.kind == TokenKeyword) {
			t.Errorf("%q: case disagrees with strings.ToUpper", c.word)
		}
	}
}

func TestKeywordClassifyZeroAlloc(t *testing.T) {
	for _, word := range []string{"l_orderkey", "o_custkey", "x", "Straße", "ſelect", "select", "SUBSTRING"} {
		if allocs := testing.AllocsPerRun(200, func() { keyword(word) }); allocs != 0 {
			t.Errorf("classifying %q: %v allocs, want 0", word, allocs)
		}
	}
}

func TestTokenizeNumbers(t *testing.T) {
	cases := []string{"42", "3.14", ".5", "1e10", "2.5E-3", "0.001"}
	for _, c := range cases {
		toks, err := Tokenize(c)
		if err != nil {
			t.Fatalf("%q: %v", c, err)
		}
		if len(toks) != 1 || toks[0].Kind != TokenNumber {
			t.Fatalf("%q should lex as one number, got %+v", c, toks)
		}
	}
}

func TestTokenizeStringsWithEscapes(t *testing.T) {
	for src, want := range map[string]string{
		"'it''s'":     "it's",
		"'plain'":     "plain",
		"''":          "",
		"''''":        "'",
		"'a''b''''c'": "a'b''c",
		"'tail'''":    "tail'",
	} {
		toks, err := Tokenize(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if len(toks) != 1 || toks[0].Kind != TokenString || toks[0].Text != want {
			t.Fatalf("%q lexed to %+v, want string %q", src, toks, want)
		}
	}
	if _, err := Tokenize("'unterminated"); err == nil {
		t.Fatal("expected unterminated-string error")
	}
}

func TestTokenizeQuotedIdents(t *testing.T) {
	for _, src := range []string{`"My Col"`, "`My Col`", "[My Col]"} {
		toks, err := Tokenize(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if len(toks) != 1 || toks[0].Kind != TokenIdent || toks[0].Text != "My Col" {
			t.Fatalf("%q lexed to %+v", src, toks)
		}
	}
	if _, err := Tokenize(`"unterminated`); err == nil {
		t.Fatal("expected unterminated-ident error")
	}
}

func TestTokenizeComments(t *testing.T) {
	toks, err := Tokenize("SELECT -- line comment\n a /* block\ncomment */ FROM t")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		texts = append(texts, tok.Text)
	}
	if strings.Join(texts, " ") != "SELECT a FROM t" {
		t.Fatalf("comments not skipped: %v", texts)
	}
}

func TestTokenizeOperators(t *testing.T) {
	toks, err := Tokenize("a <= b >= c <> d != e || f")
	if err != nil {
		t.Fatal(err)
	}
	ops := []string{}
	for _, tok := range toks {
		if tok.Kind == TokenOp {
			ops = append(ops, tok.Text)
		}
	}
	want := []string{"<=", ">=", "<>", "!=", "||"}
	if strings.Join(ops, ",") != strings.Join(want, ",") {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
}

func TestTokenizeParamAndPunct(t *testing.T) {
	toks, err := Tokenize("f(?, a.b);")
	if err != nil {
		t.Fatal(err)
	}
	ks := kinds(toks)
	want := []TokenKind{TokenIdent, TokenPunct, TokenParam, TokenPunct, TokenIdent, TokenPunct, TokenIdent, TokenPunct, TokenPunct}
	if len(ks) != len(want) {
		t.Fatalf("kinds = %v", ks)
	}
	for i := range want {
		if ks[i] != want[i] {
			t.Fatalf("token %d kind = %v, want %v", i, ks[i], want[i])
		}
	}
}

func TestTokenizeBadChar(t *testing.T) {
	if _, err := Tokenize("a @ b"); err == nil {
		t.Fatal("expected lex error for @")
	}
}

func TestTokenizePositions(t *testing.T) {
	toks, err := Tokenize("ab cd")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != 0 || toks[1].Pos != 3 {
		t.Fatalf("positions = %d, %d", toks[0].Pos, toks[1].Pos)
	}
}
