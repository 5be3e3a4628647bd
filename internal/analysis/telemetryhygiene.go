package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
)

// TelemetryAnalyzer guards the observability conventions (DESIGN.md §8):
// a span opened by a Start/StartSpan-style call must be ended in the
// same function (defer preferred; an explicit End on every path also
// counts — the check requires at least one End on the span variable),
// metric/span name literals must follow the area/sub/name convention,
// and library packages under internal/ never print diagnostics directly
// — fmt.Print* and writes to os.Stderr/os.Stdout are reserved for cmd/
// binaries (which own the slog logger) and internal/telemetry itself
// (which implements the sinks). Libraries report through metrics, spans,
// and errors.
var TelemetryAnalyzer = &Analyzer{
	ID:  "telemetry",
	Doc: "spans ended in the function that starts them; metric names follow area/sub/name; no bare fmt/os.Stderr output in internal/ libraries",
	Run: runTelemetry,
}

// NamePattern is the shared naming convention: 2–4 slash-separated
// lowercase segments, e.g. "cost/whatif/calls", "core/greedy/argmax_nanos",
// "advisor/enumerate/rounds". Only string-literal names are checked;
// names built at runtime are not.
const NamePattern = `^[a-z][a-z0-9_-]*(/[a-z0-9_-]+){1,3}$`

var nameRe = regexp.MustCompile(NamePattern)

// metricMethods are Registry methods whose first argument is a metric or
// span name.
var metricMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true, "Start": true, "StartSpan": true,
}

func runTelemetry(pass *Pass) {
	// cmd/ mains own the process logger; internal/telemetry implements the
	// output sinks. Everything else under internal/ must stay silent.
	checkOutput := pathHasSegment(pass.Path, "internal") &&
		!pathHasSeq(pass.Path, "internal/telemetry")
	for _, file := range pass.Files {
		forEachFunc(file, func(fs funcScope) { checkSpanPairing(pass, fs) })
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkNameLiteral(pass, call)
			if checkOutput {
				checkBareOutput(pass, call)
			}
			return true
		})
	}
}

// fmtPrinters are the fmt functions that write to stdout unconditionally.
var fmtPrinters = map[string]bool{"Print": true, "Printf": true, "Println": true}

// fmtWriters are the fmt functions whose first argument selects the
// writer; they are flagged only when that argument is os.Stderr/os.Stdout.
var fmtWriters = map[string]bool{"Fprint": true, "Fprintf": true, "Fprintln": true}

// checkBareOutput flags direct process-output calls in internal/ library
// code: fmt.Print*, fmt.Fprint* targeting os.Stderr/os.Stdout, and
// os.Stderr/os.Stdout method calls (Write, WriteString). Diagnostics
// belong to the binaries' slog logger (telemetry.NewLogger); libraries
// record metrics and spans instead (DESIGN.md §8).
func checkBareOutput(pass *Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if fmtPrinters[sel.Sel.Name] && selIsPkgMember(pass.Info, sel, "fmt", sel.Sel.Name) {
		pass.Reportf(call.Pos(), "fmt.%s writes to stdout from library code; return an error or record metrics and spans (DESIGN.md §8)", sel.Sel.Name)
		return
	}
	if fmtWriters[sel.Sel.Name] && selIsPkgMember(pass.Info, sel, "fmt", sel.Sel.Name) && len(call.Args) > 0 {
		if stream := osStdStream(pass, call.Args[0]); stream != "" {
			pass.Reportf(call.Pos(), "fmt.%s to %s from library code; binaries own the logger (telemetry.NewLogger) — return an error or record a metric instead", sel.Sel.Name, stream)
		}
		return
	}
	// os.Stderr.Write / os.Stdout.WriteString and friends.
	if stream := osStdStream(pass, sel.X); stream != "" {
		pass.Reportf(call.Pos(), "%s.%s from library code; binaries own the logger (telemetry.NewLogger) — return an error or record a metric instead", stream, sel.Sel.Name)
	}
}

// osStdStream reports whether the expression denotes the os.Stderr or
// os.Stdout package variable, returning its name ("" otherwise).
func osStdStream(pass *Pass, x ast.Expr) string {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	for _, name := range []string{"Stderr", "Stdout"} {
		if selIsPkgMember(pass.Info, sel, "os", name) {
			return "os." + name
		}
	}
	return ""
}

// checkNameLiteral validates string-literal names passed to Registry
// metric/span constructors (non-literal names are validated at runtime
// by scripts/metricscheck on the export).
func checkNameLiteral(pass *Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !metricMethods[sel.Sel.Name] || len(call.Args) == 0 {
		return
	}
	if !isRegistryRecv(pass, sel.X) {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if !nameRe.MatchString(name) {
		pass.Reportf(lit.Pos(), "metric/span name %q does not match the area/sub/name convention (%s)", name, NamePattern)
	}
}

// isRegistryRecv reports whether the expression's type is (a pointer to)
// a named type called Registry — the telemetry registry, matched
// structurally so fixtures can define their own.
func isRegistryRecv(pass *Pass, x ast.Expr) bool {
	t := pass.TypeOf(x)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

// checkSpanPairing flags Start/StartSpan-style calls (a method returning
// a pointer to a type with an End() method) whose result is discarded or
// whose span variable has no End call in the same function.
func checkSpanPairing(pass *Pass, fs funcScope) {
	inspectShallow(fs.body, func(n ast.Node) bool {
		var call *ast.CallExpr
		var target *ast.Ident // span variable, nil when discarded

		switch st := n.(type) {
		case *ast.ExprStmt:
			c, ok := st.X.(*ast.CallExpr)
			if ok && isSpanStart(pass, c) {
				call = c
			}
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				c, ok := rhs.(*ast.CallExpr)
				if !ok || !isSpanStart(pass, c) {
					continue
				}
				call = c
				if i < len(st.Lhs) {
					if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
						target = id
					}
				}
			}
		}
		if call == nil {
			return true
		}
		if target == nil {
			pass.Reportf(call.Pos(), "span started but its handle is discarded; assign it and End it in this function")
			return true
		}
		obj := pass.Info.ObjectOf(target)
		if obj == nil {
			return true
		}
		if !hasEndCall(pass, fs.body, obj) {
			pass.Reportf(call.Pos(), "span %q is started but never ended in this function; add defer %s.End() (or End it on every path)", target.Name, target.Name)
		}
		return true
	})
}

// isSpanStart reports whether the call is a method named Start/StartSpan
// returning exactly one value: a pointer to a named type that has an
// End() method.
func isSpanStart(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Start" && sel.Sel.Name != "StartSpan") {
		return false
	}
	if _, isMethod := pass.Info.Selections[sel]; !isMethod {
		return false
	}
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	endObj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), "End")
	end, ok := endObj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := end.Type().(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

// hasEndCall reports whether body contains v.End() (plain or deferred)
// on the given span object, including inside nested literals (a deferred
// closure that ends the span still ends it in this function).
func hasEndCall(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "End" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
