package sqlparser

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzParse checks the lexer and parser on arbitrary input. The lexer
// must classify every bare word as a keyword exactly when
// strings.ToUpper makes it one. The parser must never panic, and
// anything it accepts must print to SQL that parses again with a stable
// printed form (print∘parse is idempotent).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT * FROM orders",
		"SELECT o_custkey, COUNT(*) FROM orders WHERE o_totalprice > 100 GROUP BY o_custkey HAVING COUNT(*) > 2 ORDER BY o_custkey DESC",
		"SELECT a.x FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.id = c.id",
		"SELECT x FROM t WHERE y IN (1, 2, 3) AND z BETWEEN 1 AND 5",
		"SELECT x FROM t WHERE c LIKE 'a%' AND d IS NOT NULL",
		"SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)",
		"SELECT CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END FROM t",
		"SELECT CAST(x AS INT) FROM (SELECT y AS x FROM u) AS sub",
		"SELECT x FROM t WHERE a = ANY (SELECT b FROM u)",
		"SELECT 'it''s' FROM t",
		"SELECT",
		"",
		"NOT SQL AT ALL",
		// Deep nesting: 100 levels parse; past maxDepth is an error.
		"SELECT a FROM t WHERE x = " + strings.Repeat("(", 100) + "1" + strings.Repeat(")", 100),
		strings.Repeat("SELECT a FROM (", 100) + "SELECT a FROM t" + strings.Repeat(") s", 100),
		"SELECT a FROM t WHERE " + strings.Repeat("NOT ", 100) + "x = 1",
		"SELECT a FROM t WHERE x = " + strings.Repeat("(", maxDepth+1) + "1" + strings.Repeat(")", maxDepth+1),
		// Keyword case folding, including non-ASCII letters that
		// upper-case to ASCII (ſ → S, ı → I) and overlong words.
		"ſelect dıstınct a FROM t",
		"SeLeCt a fRoM t wHeRe b iS nOt NuLl",
		"select substrings, ſubſtrıng(a) from t",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		if toks, err := Tokenize(sql); err == nil {
			checkWordTokens(t, sql, toks)
		}
		stmt, err := Parse(sql)
		if err != nil {
			return
		}
		if stmt == nil {
			t.Fatal("nil statement with nil error")
		}
		printed := stmt.SQL()
		stmt2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed SQL does not re-parse: %v\ninput:   %q\nprinted: %q", err, sql, printed)
		}
		if again := stmt2.SQL(); again != printed {
			t.Fatalf("printing is not stable:\nfirst:  %q\nsecond: %q", printed, again)
		}
	})
}

// checkWordTokens checks each bare word's token against the reference
// classification: a keyword carrying strings.ToUpper(word) exactly when
// keywords holds that upper-cased word, and otherwise an identifier
// carrying the word itself.
func checkWordTokens(t *testing.T, sql string, toks []Token) {
	t.Helper()
	for _, tok := range toks {
		if tok.Kind != TokenIdent && tok.Kind != TokenKeyword {
			continue
		}
		word := bareWordAt(sql, tok.Pos)
		if word == "" {
			continue // a quoted identifier
		}
		up := strings.ToUpper(word)
		if _, isKw := keywords[up]; isKw {
			if tok.Kind != TokenKeyword || tok.Text != up {
				t.Fatalf("word %q lexed to %+v, want keyword %q", word, tok, up)
			}
		} else if tok.Kind != TokenIdent || tok.Text != word {
			t.Fatalf("word %q lexed to %+v, want identifier %q", word, tok, word)
		}
	}
}

// bareWordAt returns the unquoted word starting at byte pos of sql, or ""
// when none starts there.
func bareWordAt(sql string, pos int) string {
	end := pos
	for end < len(sql) {
		r, size := utf8.DecodeRuneInString(sql[end:])
		if !validRune(r, size) || (end == pos && !isIdentStart(r)) || !isIdentPart(r) {
			break
		}
		end += size
	}
	return sql[pos:end]
}
