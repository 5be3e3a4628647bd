package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// ErrHygieneAnalyzer enforces the module's error-handling discipline in
// internal/ packages (DESIGN.md §15):
//
//  1. no silent discards — a statement-level call whose results include
//     an error must not drop it implicitly. Handle it, or write `_ =`
//     so the discard is visible in review. fmt printing, and methods on
//     the never-failing strings.Builder / bytes.Buffer, are exempt
//     (matching errcheck's defaults).
//  2. wrap, don't stringify — fmt.Errorf with an error argument must
//     use %w, not %v/%s: stringifying severs the chain and breaks
//     errors.Is/As at every caller (the wrapped-sentinel contract that
//     errors.Is(err, faults.ErrInjected) depends on).
//  3. compare with errors.Is — ==/!= between two errors only sees the
//     outermost value; a sentinel wrapped once (by rule 2!) never
//     compares equal again.
//
// Rules 2 and 3 carry autofixes (-fix): the verb is rewritten to %w,
// and the comparison becomes errors.Is(err, sentinel), importing
// "errors" into a grouped import block when needed.
var ErrHygieneAnalyzer = &Analyzer{
	ID:  "errhygiene",
	Doc: "no discarded errors in internal/; wrap with %w across boundaries; compare sentinels with errors.Is",
	Run: runErrHygiene,
}

func runErrHygiene(pass *Pass) {
	if !pathHasSegment(pass.Path, "internal") {
		return
	}
	for _, file := range pass.Files {
		checkDiscardedErrors(pass, file)
		checkErrorfWrap(pass, file)
		checkSentinelCompare(pass, file)
	}
}

// errorIfaceOf returns the universe error interface.
func errorIface() *types.Interface {
	return types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
}

// implementsError reports whether t's value satisfies error.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return types.Implements(t, errorIface())
}

// --- rule 1: discarded errors -----------------------------------------

func checkDiscardedErrors(pass *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		stmt, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := stmt.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		nres, hasErr := callResults(pass, call)
		if !hasErr || isDiscardExempt(pass, call) {
			return true
		}
		blanks := strings.Repeat("_, ", nres-1) + "_ = "
		fix := SuggestedFix{
			Message: "make the discard explicit with _ =",
			Edits:   []TextEdit{{Start: pass.Offset(call.Pos()), End: pass.Offset(call.Pos()), NewText: blanks}},
		}
		pass.ReportFix(call.Pos(), fix,
			"error result of %s is silently discarded; handle it or discard explicitly with _ =", callLabel(call))
		return true
	})
}

// callResults returns the call's result count and whether any result is
// the error type.
func callResults(pass *Pass, call *ast.CallExpr) (n int, hasErr bool) {
	t := pass.TypeOf(call)
	if t == nil {
		return 0, false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				hasErr = true
			}
		}
		return tup.Len(), hasErr
	}
	return 1, isErrorType(t)
}

// isDiscardExempt mirrors errcheck's default exemptions: fmt printing
// and the infallible stdlib writers.
func isDiscardExempt(pass *Pass, call *ast.CallExpr) bool {
	if f := calleeFunc(pass.Info, call); f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
		return true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := pass.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

// callLabel renders a short human label for the call ("f.Close()").
func callLabel(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name + "()"
	case *ast.SelectorExpr:
		if base, ok := exprKey(fun.X); ok {
			return base + "." + fun.Sel.Name + "()"
		}
		return fun.Sel.Name + "()"
	}
	return "call"
}

// --- rule 2: %w wrapping ----------------------------------------------

// fmtVerb is one scanned format verb: its verb byte, the index of the
// argument it consumes (into call.Args; the first variadic arg is 1),
// and the offset of the verb byte within the raw string literal.
type fmtVerb struct {
	verb   byte
	argIdx int
	rawOff int
}

func checkErrorfWrap(pass *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !pkgFunc(pass.Info, call, "fmt", "Errorf") || len(call.Args) < 2 {
			return true
		}
		lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		verbs, scanOK := scanVerbs(lit.Value)
		for _, v := range verbs {
			if v.verb == 'w' {
				return true // already wraps
			}
		}
		for _, v := range verbs {
			if (v.verb != 'v' && v.verb != 's') || v.argIdx >= len(call.Args) {
				continue
			}
			if !implementsError(pass.TypeOf(call.Args[v.argIdx])) {
				continue
			}
			msg := "fmt.Errorf formats an error with %%" + string(v.verb) +
				"; use %%w so callers can unwrap it with errors.Is/As"
			if scanOK {
				off := pass.Offset(lit.Pos()) + v.rawOff
				pass.ReportFix(call.Pos(), SuggestedFix{
					Message: "wrap with %w",
					Edits:   []TextEdit{{Start: off, End: off + 1, NewText: "w"}},
				}, msg)
			} else {
				pass.Reportf(call.Pos(), msg)
			}
			return true // one finding per Errorf is enough
		}
		return true
	})
}

// scanVerbs scans a raw (still-quoted) string literal for format verbs,
// tracking which argument each consumes. ok is false when the literal
// uses features the scanner cannot map to byte offsets safely (explicit
// argument indexes, numeric escapes); verbs are still returned for
// detection, but fixes must not rely on rawOff.
func scanVerbs(raw string) (verbs []fmtVerb, ok bool) {
	ok = true
	arg := 1
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c == '\\' && !strings.HasPrefix(raw, "`") {
			if i+1 < len(raw) {
				switch raw[i+1] {
				case 'x', 'u', 'U', '0', '1', '2', '3', '4', '5', '6', '7':
					ok = false // multi-byte escape: offsets past here unreliable
				}
			}
			i++
			continue
		}
		if c != '%' {
			continue
		}
		// Scan flags, width, precision.
		j := i + 1
		for j < len(raw) && strings.ContainsRune("+-# 0", rune(raw[j])) {
			j++
		}
		if j < len(raw) && raw[j] == '[' {
			ok = false // explicit arg index: bail on mapping
			i = j
			continue
		}
		for j < len(raw) && (raw[j] == '*' || (raw[j] >= '0' && raw[j] <= '9')) {
			if raw[j] == '*' {
				arg++
			}
			j++
		}
		if j < len(raw) && raw[j] == '.' {
			j++
			for j < len(raw) && (raw[j] == '*' || (raw[j] >= '0' && raw[j] <= '9')) {
				if raw[j] == '*' {
					arg++
				}
				j++
			}
		}
		if j >= len(raw) {
			break
		}
		if raw[j] == '%' {
			i = j
			continue
		}
		verbs = append(verbs, fmtVerb{verb: raw[j], argIdx: arg, rawOff: j})
		arg++
		i = j
	}
	return verbs, ok
}

// --- rule 3: sentinel comparison --------------------------------------

func checkSentinelCompare(pass *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		if !implementsError(pass.TypeOf(be.X)) || !implementsError(pass.TypeOf(be.Y)) {
			return true
		}
		repl := "errors.Is(" + exprText(pass.Fset, be.X) + ", " + exprText(pass.Fset, be.Y) + ")"
		if be.Op == token.NEQ {
			repl = "!" + repl
		}
		edits := []TextEdit{{Start: pass.Offset(be.Pos()), End: pass.Offset(be.End()), NewText: repl}}
		if imp, fixable := ensureErrorsImport(pass, file); fixable {
			edits = append(edits, imp...)
			pass.ReportFix(be.Pos(), SuggestedFix{Message: "compare with errors.Is", Edits: edits},
				"errors compared with %s only match unwrapped; use errors.Is so wrapped sentinels still match", be.Op)
		} else {
			pass.Reportf(be.Pos(),
				"errors compared with %s only match unwrapped; use errors.Is so wrapped sentinels still match", be.Op)
		}
		return true
	})
}

// exprText renders an expression back to source.
func exprText(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}

// ensureErrorsImport returns the edits (possibly none) needed to make
// the errors package importable in file, or fixable=false when the
// import would need manual attention (renamed import, no grouped block).
func ensureErrorsImport(pass *Pass, file *ast.File) (edits []TextEdit, fixable bool) {
	for _, imp := range file.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path != "errors" {
			continue
		}
		if imp.Name == nil || imp.Name.Name == "errors" {
			return nil, true // already importable as errors.
		}
		return nil, false // renamed (or blank) import: don't fight it
	}
	// Insert into the first grouped import block, keeping sorted order.
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT || !gd.Lparen.IsValid() {
			continue
		}
		for _, spec := range gd.Specs {
			is := spec.(*ast.ImportSpec)
			path, _ := strconv.Unquote(is.Path.Value)
			if path > "errors" {
				off := pass.Offset(is.Pos())
				return []TextEdit{{Start: off, End: off, NewText: "\"errors\"\n\t"}}, true
			}
		}
		if n := len(gd.Specs); n > 0 {
			off := pass.Offset(gd.Specs[n-1].End())
			return []TextEdit{{Start: off, End: off, NewText: "\n\t\"errors\""}}, true
		}
	}
	return nil, false
}
