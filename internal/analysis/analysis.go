// Package analysis is isumlint's engine: a stdlib-only static-analysis
// framework (go/parser, go/ast, go/types, go/importer in source mode —
// the module stays offline and dependency-free) plus the five analyzers
// that machine-check the pipeline's invariants:
//
//   - determinism  — no wall-clock or unseeded randomness on library
//     paths; no map-iteration-order float accumulation or unsorted
//     collection (the features.detSum bug class, DESIGN.md §9)
//   - ctx          — context.Context is the first parameter, never a
//     struct field, never dropped when a ctx-aware variant exists
//   - concurrency  — goroutines only via internal/parallel (or cmd/
//     mains); no locks passed or returned by value (DESIGN.md §7)
//   - telemetry    — spans started in a function are ended in that
//     function; metric and span name literals follow the area/sub/name
//     convention shared with scripts/metricscheck (DESIGN.md §8)
//   - anytime      — exported ctx-taking functions in internal/core and
//     internal/advisor never return a bare ctx.Err(): cancellation
//     yields best-so-far + Partial, never an error (DESIGN.md §9)
//
// plus three dataflow analyzers built on a per-function CFG and forward
// worklist solver (cfg.go, DESIGN.md §15):
//
//   - alloc       — no heap allocation inside //lint:hotpath functions
//     (the PR 5 zero-alloc kernel pins, statically enforced); pooled
//     scratch Put back on every path
//   - locksafety  — locks released on every path out of a function,
//     never held across channel/ctx waits; every goroutine joinable
//   - errhygiene  — no silently discarded errors in internal/, wrap
//     with %w, compare sentinels with errors.Is
//
// Findings are machine-readable (file:line:col, analyzer id, message)
// and suppressible per line with a reasoned escape hatch:
//
//	//lint:allow <analyzer-id> <reason>
//
// A directive suppresses matching findings on its own line or, for a
// standalone comment, on the first line after the comment ends. A
// directive without a reason, or one that suppresses nothing, is itself
// a finding, so the allowlist cannot rot silently.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer hit. Pos is resolved (file, line, column);
// Analyzer is the stable id used by //lint:allow directives.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Fixes are optional machine-applicable corrections (applied by the
	// driver's -fix mode, previewed by -diff). Multiple fixes are
	// alternatives; ApplyFixes uses the first.
	Fixes []SuggestedFix
}

// SuggestedFix is one self-contained correction: a set of byte-range
// edits within a single file.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

// TextEdit replaces the source bytes at [Start, End) with NewText.
// Offsets are file offsets (token.Position.Offset) in the file the
// finding points at; an insertion has Start == End.
type TextEdit struct {
	Start, End int
	NewText    string
}

// String renders the finding in the canonical machine-readable form
// shared by the driver output and the golden expectation files.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named invariant check run over a type-checked package.
type Analyzer struct {
	ID  string // stable id, used in findings and //lint:allow
	Doc string // one-line description of the guarded invariant
	Run func(*Pass)
}

// Analyzers returns the full suite in a fixed order: the five PR 4
// syntactic analyzers followed by the three dataflow analyzers
// (DESIGN.md §15).
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		CtxAnalyzer,
		ConcurrencyAnalyzer,
		TelemetryAnalyzer,
		AnytimeAnalyzer,
		AllocAnalyzer,
		LockSafetyAnalyzer,
		ErrHygieneAnalyzer,
	}
}

// Pass is the per-package unit of work handed to each analyzer.
type Pass struct {
	Fset  *token.FileSet
	Path  string // package import path (e.g. "isum/internal/core")
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer string
	report   func(Finding)
}

// Reportf records a finding at pos under the running analyzer's id.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportFix records a finding carrying a machine-applicable fix. All
// edit offsets are within the finding's own file.
func (p *Pass) ReportFix(pos token.Pos, fix SuggestedFix, format string, args ...any) {
	p.report(Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
		Fixes:    []SuggestedFix{fix},
	})
}

// Offset resolves a token.Pos to its byte offset in its file.
func (p *Pass) Offset(pos token.Pos) int { return p.Fset.Position(pos).Offset }

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// RunPackage runs every analyzer over pkg, applies the package's
// //lint:allow directives, and returns the surviving findings sorted by
// position. Directive misuse (missing reason, unused directive) is
// appended as findings under the "allow" pseudo-analyzer.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Finding {
	var raw []Finding
	pass := &Pass{
		Fset:  pkg.Fset,
		Path:  pkg.Path,
		Files: pkg.Files,
		Pkg:   pkg.Types,
		Info:  pkg.Info,
	}
	pass.report = func(f Finding) { raw = append(raw, f) }
	for _, a := range analyzers {
		pass.analyzer = a.ID
		a.Run(pass)
	}
	allows, bad := parseAllows(pkg)
	kept := filterAllowed(raw, allows)
	kept = append(kept, bad...)
	kept = append(kept, unusedAllows(allows)...)
	sortFindings(kept)
	return kept
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// pathHasSeq reports whether the slash-separated import path contains
// the given consecutive segment sequence (e.g. "internal/parallel").
func pathHasSeq(path, seq string) bool {
	segs := strings.Split(path, "/")
	want := strings.Split(seq, "/")
	for i := 0; i+len(want) <= len(segs); i++ {
		match := true
		for j := range want {
			if segs[i+j] != want[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// pathHasSegment reports whether one segment of the import path equals seg.
func pathHasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// enclosingFuncs maps every node inside a file to the innermost function
// body it belongs to. Analyzers use funcFor to scope searches (e.g. "is
// this span ended in the same function").
type funcScope struct {
	node ast.Node // *ast.FuncDecl or *ast.FuncLit
	body *ast.BlockStmt
}

// forEachFunc invokes fn for every function declaration and literal in
// the file that has a body.
func forEachFunc(file *ast.File, fn func(fs funcScope)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(funcScope{node: d, body: d.Body})
			}
		case *ast.FuncLit:
			fn(funcScope{node: d, body: d.Body})
		}
		return true
	})
}

// inspectShallow walks body but does not descend into nested function
// literals; analyzers that reason per-function use it so each FuncLit is
// analyzed exactly once, under its own scope.
func inspectShallow(body ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return false
		}
		return fn(n)
	})
}

// exprKey canonicalises a simple ident/selector chain ("w.f", "mu") for
// use as a dataflow key; non-simple expressions are not tracked.
func exprKey(e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name, true
	case *ast.SelectorExpr:
		base, ok := exprKey(x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	}
	return "", false
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return t == types.Universe.Lookup("error").Type()
	}
	return named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// pkgFunc reports whether the call's callee resolves to the named
// package-level function of the package with import path pkgPath, using
// the type info (robust against package renames).
func pkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return selIsPkgMember(info, sel, pkgPath, name)
}

// selIsPkgMember reports whether sel selects the named member of the
// package with the given import path.
func selIsPkgMember(info *types.Info, sel *ast.SelectorExpr, pkgPath, name string) bool {
	if sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// calleeFunc resolves the call's callee to its *types.Func (package
// functions and methods; nil for builtins, func-typed variables, and
// type conversions).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
