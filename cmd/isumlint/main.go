// Command isumlint is the repo's custom static-analysis gate: it
// enforces the pipeline's determinism, context, concurrency, telemetry,
// anytime-contract, allocation, lock-safety, and error-hygiene
// invariants (DESIGN.md §10, §15) over the whole module using only the
// standard library's go/ast and go/types.
//
// Usage:
//
//	isumlint [-json] [-list] [-fix] [-diff] [-sarif file] [-baseline file]
//	         [-write-baseline] [-prune-allows] [patterns]
//
// Patterns are package directories relative to the module root, with an
// optional /... suffix ("./...", "./internal/...", "internal/core").
// With no patterns (or "./..."), the whole module is linted. Test files
// are not analyzed. Findings print one per line in machine-readable
// form:
//
//	file.go:12:4: [determinism] time.Now is wall-clock nondeterminism; ...
//
// A finding is suppressed by a reasoned escape hatch on its line (or a
// standalone comment directly above):
//
//	start := time.Now() //lint:allow determinism phase timing only
//
// Modes:
//
//	-fix             apply suggested fixes in place, then re-lint and
//	                 report what remains
//	-diff            print the fixes as unified diffs without writing
//	-sarif file      also write the findings as a SARIF 2.1.0 log
//	-baseline file   drop findings recorded in the baseline; stale
//	                 baseline entries (recorded but gone) still fail
//	-write-baseline  record the current findings as the new baseline
//	-prune-allows    report only stale //lint:allow directives (with
//	                 -fix: delete them)
//
// Exit status: 0 clean, 1 findings (or stale baseline entries), 2 load
// or usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"isum/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text lines")
	list := flag.Bool("list", false, "list the analyzers and the invariants they guard, then exit")
	fix := flag.Bool("fix", false, "apply suggested fixes in place, then re-lint")
	diff := flag.Bool("diff", false, "print suggested fixes as unified diffs (dry run)")
	sarifPath := flag.String("sarif", "", "write findings as a SARIF 2.1.0 log to this file")
	baselinePath := flag.String("baseline", "", "suppress findings recorded in this baseline file")
	writeBaseline := flag.Bool("write-baseline", false, "record current findings to the baseline file (default .lintbaseline)")
	pruneAllows := flag.Bool("prune-allows", false, "report stale //lint:allow directives only (-fix deletes them)")
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-12s %s\n", a.ID, a.Doc)
		}
		return
	}

	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	filters, err := compilePatterns(root, flag.Args())
	if err != nil {
		fatal(err)
	}

	findings, sources, err := lint(root, filters, *pruneAllows)
	if err != nil {
		fatal(err)
	}

	if *writeBaseline {
		path := *baselinePath
		if path == "" {
			path = filepath.Join(root, ".lintbaseline")
		}
		b := analysis.NewBaseline(findings, root)
		if err := os.WriteFile(path, b.Format(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "isumlint: wrote %d baseline entr%s to %s\n",
			len(b), plural(len(b), "y", "ies"), path)
		return
	}

	var stale []string
	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			fatal(err)
		}
		b, err := analysis.ParseBaseline(data)
		if err != nil {
			fatal(err)
		}
		findings, stale = analysis.ApplyBaseline(findings, b, root)
	}

	switch {
	case *diff:
		printDiffs(findings, sources, root)
	case *fix:
		n, err := writeFixes(findings, sources)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "isumlint: rewrote %d file%s\n", n, plural(n, "", "s"))
		if n > 0 {
			// Re-lint so the report reflects the fixed tree.
			findings, _, err = lint(root, filters, *pruneAllows)
			if err != nil {
				fatal(err)
			}
			if *baselinePath != "" {
				data, err := os.ReadFile(*baselinePath)
				if err == nil {
					if b, perr := analysis.ParseBaseline(data); perr == nil {
						findings, stale = analysis.ApplyBaseline(findings, b, root)
					}
				}
			}
		}
	}

	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil {
			findings[i].Pos.Filename = rel
		}
	}

	if *sarifPath != "" {
		doc, err := analysis.SARIF(findings, analysis.Analyzers(), "")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*sarifPath, doc, 0o644); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		type jsonFinding struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
			Fixable  bool   `json:"fixable,omitempty"`
		}
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
				Analyzer: f.Analyzer, Message: f.Message, Fixable: len(f.Fixes) > 0,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else if !*diff {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	for _, s := range stale {
		fmt.Fprintf(os.Stderr, "isumlint: stale baseline entry: %s\n", s)
	}
	if len(findings) > 0 || len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "isumlint: %d finding(s), %d stale baseline entr%s\n",
			len(findings), len(stale), plural(len(stale), "y", "ies"))
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "isumlint: ok")
}

// lint loads the module and runs the suite (or the allow-pruning subset)
// over every package matching the filters. It returns findings with
// absolute filenames plus the merged filename -> source map the fix
// modes edit against. Zero matched packages is an error: a typo'd
// pattern must not read as a clean run.
func lint(root string, filters *patternSet, pruneAllows bool) ([]analysis.Finding, map[string][]byte, error) {
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		return nil, nil, err
	}
	var findings []analysis.Finding
	sources := make(map[string][]byte)
	matched := 0
	for _, pkg := range pkgs {
		if !filters.match(root, pkg.Dir) {
			continue
		}
		matched++
		if pruneAllows {
			findings = append(findings, analysis.PruneAllows(pkg, analysis.Analyzers())...)
		} else {
			findings = append(findings, analysis.RunPackage(pkg, analysis.Analyzers())...)
		}
		for name, src := range pkg.Sources {
			sources[name] = src
		}
	}
	if matched == 0 {
		return nil, nil, fmt.Errorf("no packages under %s match the given patterns", root)
	}
	return findings, sources, nil
}

// printDiffs renders every applicable fix as a unified diff on stdout.
func printDiffs(findings []analysis.Finding, sources map[string][]byte, root string) {
	changed, _, _ := analysis.ApplyFixes(findings, sources)
	names := make([]string, 0, len(changed))
	for name := range changed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		display := name
		if rel, err := filepath.Rel(root, name); err == nil {
			display = rel
		}
		fmt.Print(analysis.Diff(display, sources[name], changed[name]))
	}
}

// writeFixes applies every suggested fix in place and returns how many
// files were rewritten.
func writeFixes(findings []analysis.Finding, sources map[string][]byte) (int, error) {
	changed, _, _ := analysis.ApplyFixes(findings, sources)
	names := make([]string, 0, len(changed))
	for name := range changed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mode := os.FileMode(0o644)
		if st, err := os.Stat(name); err == nil {
			mode = st.Mode().Perm()
		}
		if err := os.WriteFile(name, changed[name], mode); err != nil {
			return 0, err
		}
	}
	return len(changed), nil
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "isumlint:", err)
	os.Exit(2)
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// patternSet filters package directories by the CLI patterns.
type patternSet struct {
	all      bool
	prefixes []string // dir prefixes (for /... patterns)
	exact    []string // exact dirs
}

func compilePatterns(root string, args []string) (*patternSet, error) {
	ps := &patternSet{}
	if len(args) == 0 {
		ps.all = true
		return ps, nil
	}
	for _, a := range args {
		p := strings.TrimPrefix(filepath.ToSlash(a), "./")
		if p == "..." || p == "" {
			ps.all = true
			continue
		}
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			if rest == "" || rest == "." {
				ps.all = true
			} else {
				ps.prefixes = append(ps.prefixes, filepath.Join(root, filepath.FromSlash(rest)))
			}
			continue
		}
		ps.exact = append(ps.exact, filepath.Join(root, filepath.FromSlash(p)))
	}
	return ps, nil
}

func (ps *patternSet) match(root, dir string) bool {
	if ps.all {
		return true
	}
	for _, e := range ps.exact {
		if dir == e {
			return true
		}
	}
	for _, p := range ps.prefixes {
		if dir == p || strings.HasPrefix(dir, p+string(filepath.Separator)) {
			return true
		}
	}
	return false
}
