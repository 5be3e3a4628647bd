package workload

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"isum/internal/catalog"
)

// LogEntry is the serialised form of one workload query, mirroring the
// contract in Section 2.2: query text plus its optimizer-estimated cost,
// as systems like Query Store would provide.
type LogEntry struct {
	SQL    string  `json:"sql"`
	Cost   float64 `json:"cost"`
	Weight float64 `json:"weight,omitempty"`
}

// Save writes the workload as a JSON array of log entries.
func (w *Workload) Save(out io.Writer) error {
	entries := make([]LogEntry, len(w.Queries))
	for i, q := range w.Queries {
		entries[i] = LogEntry{SQL: q.Text, Cost: q.Cost, Weight: q.Weight}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(entries)
}

// LoadSQLScript reads a plain SQL script — statements separated by
// semicolons, with -- and /* */ comments — and analyses each statement.
// Costs are left zero (fill them with the optimizer); this is the format
// benchmarks and migration scripts usually ship in.
func LoadSQLScript(cat *catalog.Catalog, in io.Reader) (*Workload, error) {
	raw, err := io.ReadAll(in)
	if err != nil {
		return nil, fmt.Errorf("workload: reading script: %w", err)
	}
	stmts, err := SplitStatements(string(raw))
	if err != nil {
		return nil, err
	}
	return New(cat, stmts)
}

// ScriptError reports a malformed construct in a SQL script: what was left
// unterminated and where it started, as a byte offset and 1-based
// line/column pair.
type ScriptError struct {
	Offset int    // byte offset of the construct's opening token
	Line   int    // 1-based line of the opening token
	Column int    // 1-based column (in bytes) of the opening token
	Msg    string // what is unterminated
}

func (e *ScriptError) Error() string {
	return fmt.Sprintf("workload: script line %d column %d (byte %d): %s",
		e.Line, e.Column, e.Offset, e.Msg)
}

// scriptErr builds a ScriptError for the construct opening at offset off.
func scriptErr(script string, off int, msg string) *ScriptError {
	line := 1 + strings.Count(script[:off], "\n")
	col := off - strings.LastIndexByte(script[:off], '\n')
	return &ScriptError{Offset: off, Line: line, Column: col, Msg: msg}
}

// SplitStatements splits SQL text on top-level semicolons, respecting
// string literals and comments. Empty statements are dropped. An
// unterminated string literal or block comment yields a *ScriptError
// carrying the position where the construct opened.
func SplitStatements(script string) ([]string, error) {
	var stmts []string
	var cur []byte
	i := 0
	for i < len(script) {
		c := script[i]
		switch {
		case c == ';':
			if s := strings.TrimSpace(string(cur)); s != "" {
				stmts = append(stmts, s)
			}
			cur = cur[:0]
			i++
		case c == '\'':
			// Copy the string literal verbatim (with '' escapes).
			start := i
			cur = append(cur, c)
			i++
			closed := false
			for i < len(script) {
				cur = append(cur, script[i])
				if script[i] == '\'' {
					if i+1 < len(script) && script[i+1] == '\'' {
						cur = append(cur, '\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				i++
			}
			if !closed {
				return nil, scriptErr(script, start, "unterminated string literal")
			}
		case c == '-' && i+1 < len(script) && script[i+1] == '-':
			for i < len(script) && script[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(script) && script[i+1] == '*':
			start := i
			i += 2
			closed := false
			for i+1 < len(script) {
				if script[i] == '*' && script[i+1] == '/' {
					closed = true
					break
				}
				i++
			}
			if !closed {
				return nil, scriptErr(script, start, "unterminated block comment")
			}
			i += 2
			// A comment separates tokens: drop a space in its place so the
			// surrounding text cannot paste into a new token ("a/**/b" is
			// "a b", and "//**/*" must not become "/*").
			cur = append(cur, ' ')
		default:
			cur = append(cur, c)
			i++
		}
	}
	if s := strings.TrimSpace(string(cur)); s != "" {
		stmts = append(stmts, s)
	}
	return stmts, nil
}

// ValidCost reports whether c is a usable optimizer-estimated cost:
// finite and not negative. Load holds each entry's cost and weight to it,
// and compression rejects a query whose Cost fails it.
func ValidCost(c float64) bool {
	return !math.IsNaN(c) && !math.IsInf(c, 0) && c >= 0
}

// Load reads a JSON workload log and analyses each query against the
// catalog. Entries with missing weights default to 1. Costs must be finite
// and non-negative, weights finite and non-negative (0 means "default");
// violations are rejected with the offending entry's index. When several
// entries are bad, the error names the first. Anything but whitespace
// after the log's array is an error giving its byte offset.
func Load(cat *catalog.Catalog, in io.Reader) (*Workload, error) {
	dec := json.NewDecoder(in)
	var entries []LogEntry
	if err := dec.Decode(&entries); err != nil {
		return nil, fmt.Errorf("workload: decoding log: %w", err)
	}
	if err := expectEnd(dec, in); err != nil {
		return nil, err
	}
	sqls := make([]string, len(entries))
	for i, e := range entries {
		sqls[i] = e.SQL
	}
	w, err := build(cat, sqls, "entry", func(i int) error {
		e := entries[i]
		if !ValidCost(e.Cost) {
			return fmt.Errorf("workload: entry %d: invalid cost %v (must be finite and >= 0)", i, e.Cost)
		}
		if !ValidCost(e.Weight) {
			return fmt.Errorf("workload: entry %d: invalid weight %v (must be finite and >= 0)", i, e.Weight)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, q := range w.Queries {
		q.Cost = entries[i].Cost
		if entries[i].Weight > 0 {
			q.Weight = entries[i].Weight
		}
	}
	return w, nil
}

// expectEnd reads the rest of a log after dec decoded its array and fails
// on the first byte that is not JSON whitespace, so that a second log
// appended to the first, or stray text, is not silently dropped.
func expectEnd(dec *json.Decoder, in io.Reader) error {
	off := dec.InputOffset()
	rest := io.MultiReader(dec.Buffered(), in)
	var buf [512]byte
	for {
		n, err := rest.Read(buf[:])
		for _, c := range buf[:n] {
			if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				return fmt.Errorf("workload: decoding log: unexpected %q at byte %d after the log", c, off)
			}
			off++
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("workload: reading log: %w", err)
		}
	}
}
