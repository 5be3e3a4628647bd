package workload

import (
	"strings"

	"isum/internal/sqlparser"
)

// Fingerprint returns a canonical template identifier for a SQL string:
// literals are replaced by '?', identifiers are lower-cased, keywords
// upper-cased, and whitespace normalised. Two instances of the same prepared
// statement that differ only in parameter bindings share a fingerprint —
// the notion of "template" used throughout the paper (Sections 1, 7).
//
// Unparseable input falls back to a whitespace-normalised copy so callers
// can fingerprint raw log lines defensively.
func Fingerprint(sql string) string {
	toks, err := sqlparser.Tokenize(sql)
	if err != nil {
		return strings.Join(strings.Fields(sql), " ")
	}
	return fingerprintTokens(toks)
}

// fingerprintTokens is Fingerprint of the statement that lexed to toks:
// each token's text, literals as '?' and identifiers lower-cased, joined
// by single spaces. When the identifiers are lower-case already it
// allocates once, for the result.
func fingerprintTokens(toks []sqlparser.Token) string {
	if len(toks) == 0 {
		return ""
	}
	size := len(toks) - 1 // the separating spaces
	for _, t := range toks {
		if isLiteral(t.Kind) {
			size++
		} else {
			size += len(t.Text)
		}
	}
	var sb strings.Builder
	sb.Grow(size)
	for i, t := range toks {
		if i > 0 {
			sb.WriteByte(' ')
		}
		switch {
		case isLiteral(t.Kind):
			sb.WriteByte('?')
		case t.Kind == sqlparser.TokenIdent:
			sb.WriteString(strings.ToLower(t.Text))
		default:
			sb.WriteString(t.Text)
		}
	}
	return sb.String()
}

func isLiteral(k sqlparser.TokenKind) bool {
	return k == sqlparser.TokenNumber || k == sqlparser.TokenString || k == sqlparser.TokenParam
}
