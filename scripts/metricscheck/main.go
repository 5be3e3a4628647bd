// Command metricscheck validates the JSON telemetry export written by the
// cmd binaries' -metrics-out (schema in internal/telemetry/export.go).
// scripts/ci.sh uses it to fail the smoke runs when an export is empty,
// malformed, or missing counters the pipeline must have bumped.
//
// Usage:
//
//	metricscheck [-require counter/name]... [-names-from pkg-dir]... metrics.json
//
// The checks: valid version-1 schema, at least one counter and one span,
// every -require'd counter present with a positive value.
//
// -names-from closes the loop between code and export: it parses the Go
// files of the given package directory (go/ast, no build step), extracts
// every string literal passed as the name argument to a
// Counter/Gauge/Histogram registration, and fails when a code-emitted
// name is absent from the export. Names built at runtime (fmt.Sprintf)
// are invisible to the literal scan and are not checked.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// export mirrors the subset of internal/telemetry's JSON schema the
// checks need.
type export struct {
	Version    int         `json:"version"`
	Counters   []counter   `json:"counters"`
	Gauges     []gauge     `json:"gauges"`
	Histograms []histogram `json:"histograms"`
	Spans      []span      `json:"spans"`
}

type counter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

type gauge struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

type histogram struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
}

type span struct {
	Name       string `json:"name"`
	DurationNs int64  `json:"duration_ns"`
	Children   []span `json:"children"`
}

// multiFlag collects repeated flag values.
type multiFlag []string

func (m *multiFlag) String() string     { return fmt.Sprint(*m) }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func main() {
	var require, namesFrom multiFlag
	flag.Var(&require, "require", "counter that must exist with a positive value (repeatable)")
	flag.Var(&namesFrom, "names-from", "package dir whose literal Counter/Gauge/Histogram names must all appear in the export (repeatable)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: metricscheck [-require counter]... [-names-from pkg-dir]... metrics.json")
		os.Exit(2)
	}
	if err := checkJSON(flag.Arg(0), require, namesFrom); err != nil {
		fmt.Fprintln(os.Stderr, "metricscheck:", err)
		os.Exit(1)
	}
	fmt.Println("metricscheck: OK")
}

func checkJSON(path string, require, namesFrom []string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var ex export
	if err := json.Unmarshal(data, &ex); err != nil {
		return fmt.Errorf("%s: malformed export: %w", path, err)
	}
	if ex.Version != 1 {
		return fmt.Errorf("%s: version %d, want 1", path, ex.Version)
	}
	if len(ex.Counters) == 0 {
		return fmt.Errorf("%s: empty export: no counters recorded", path)
	}
	if len(ex.Spans) == 0 {
		return fmt.Errorf("%s: empty export: no spans recorded", path)
	}
	values := map[string]int64{}
	for _, c := range ex.Counters {
		values[c.Name] = c.Value
	}
	for _, name := range require {
		v, ok := values[name]
		if !ok {
			return fmt.Errorf("%s: required counter %q missing", path, name)
		}
		if v <= 0 {
			return fmt.Errorf("%s: required counter %q is %d, want > 0", path, name, v)
		}
	}
	exported := map[string]bool{}
	for _, c := range ex.Counters {
		exported[c.Name] = true
	}
	for _, g := range ex.Gauges {
		exported[g.Name] = true
	}
	for _, h := range ex.Histograms {
		exported[h.Name] = true
	}
	for _, dir := range namesFrom {
		names, err := literalNames(dir)
		if err != nil {
			return fmt.Errorf("-names-from %s: %w", dir, err)
		}
		if len(names) == 0 {
			return fmt.Errorf("-names-from %s: no literal metric names found; wrong directory?", dir)
		}
		var missing []string
		for _, name := range names {
			if !exported[name] {
				missing = append(missing, name)
			}
		}
		if len(missing) > 0 {
			return fmt.Errorf("%s: metric names registered by %s missing from the export: %s",
				path, dir, strings.Join(missing, ", "))
		}
	}
	return nil
}

// literalNames parses the non-test Go files in dir and returns the
// sorted, deduplicated string literals passed as the first argument to
// any Counter/Gauge/Histogram call. Pure syntax — no type checking — so
// it costs nothing and cannot fail on build issues; the trade-off is
// that runtime-built names are invisible.
func literalNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Counter", "Gauge", "Histogram":
			default:
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if s, err := strconv.Unquote(lit.Value); err == nil {
				seen[s] = true
			}
			return true
		})
	}
	names := make([]string, 0, len(seen))
	for s := range seen {
		names = append(names, s)
	}
	sort.Strings(names)
	return names, nil
}
