package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// DeterminismAnalyzer guards the byte-identical-runs invariant (the same
// output at any parallelism and on every run, DESIGN.md §9): it flags
// wall-clock reads, draws from math/rand's shared unseeded source, and
// map-iteration-order float accumulation or map-order slice collection
// with no subsequent canonical ordering — float sums whose bits depend on
// Go's randomised map order, the bug class that sorting before summing
// fixes.
var DeterminismAnalyzer = &Analyzer{
	ID:  "determinism",
	Doc: "no time.Now, unseeded math/rand, or map-iteration-order accumulation on result paths",
	Run: runDeterminism,
}

// seededRandCtors are the math/rand members that construct or feed an
// explicitly seeded generator; everything else package-level draws from
// the shared global source, whose sequence is unseeded process state.
var seededRandCtors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// canonicalizerPat matches call names that impose a canonical order on a
// collected slice: the sort/slices packages, detSum-style sort-then-sum
// helpers, and any helper advertising itself as sorting or canonicalising.
var canonicalizerPat = regexp.MustCompile(`(?i)(sort|canonical|detsum)`)

func runDeterminism(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if selIsPkgMember(pass.Info, sel, "time", "Now") {
				pass.Reportf(sel.Pos(), "time.Now is wall-clock nondeterminism; confine it to telemetry/timing paths (//lint:allow with a reason) or inject a clock")
			}
			for _, randPath := range []string{"math/rand", "math/rand/v2"} {
				if id, ok := sel.X.(*ast.Ident); ok {
					if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == randPath {
						if obj, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok && obj.Type().(*types.Signature).Recv() == nil {
							if !seededRandCtors[sel.Sel.Name] {
								pass.Reportf(sel.Pos(), "%s.%s draws from the shared unseeded source; use rand.New(rand.NewSource(seed)) so runs reproduce", randPath, sel.Sel.Name)
							}
						}
					}
				}
			}
			return true
		})
		forEachFunc(file, func(fs funcScope) { checkMapRanges(pass, fs) })
	}
}

// checkMapRanges flags, inside each `for … range <map>` body of the
// function, (a) float accumulation — order-dependent in every case —
// and (b) appends whose collected slice is never passed to a sorting or
// canonicalising call later in the same function.
func checkMapRanges(pass *Pass, fs funcScope) {
	inspectShallow(fs.body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pass.TypeOf(rng.X); t == nil || !isMap(t) {
			return true
		}
		var appended []*ast.Ident // slice vars appended to in the body
		ast.Inspect(rng.Body, func(bn ast.Node) bool {
			as, ok := bn.(*ast.AssignStmt)
			if !ok {
				return true
			}
			switch as.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN:
				// Only scalar accumulators are order-dependent: `m[k] += w`
				// keyed by the range key touches a distinct slot per
				// iteration and is safe.
				for _, lhs := range as.Lhs {
					if _, isIdent := lhs.(*ast.Ident); !isIdent {
						continue
					}
					if t := pass.TypeOf(lhs); t != nil && isFloat(t) {
						pass.Reportf(as.Pos(), "float accumulation inside a map-range loop sums in randomized iteration order; collect the values and sort before summing")
					}
				}

			case token.ASSIGN, token.DEFINE:
				for i, rhs := range as.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || !isBuiltinAppend(pass.Info, call) || i >= len(as.Lhs) {
						continue
					}
					if id, ok := as.Lhs[i].(*ast.Ident); ok {
						appended = append(appended, id)
					}
				}
			}
			return true
		})
		seen := make(map[types.Object]bool)
		for _, id := range appended {
			obj := pass.Info.ObjectOf(id)
			if obj == nil || seen[obj] {
				continue
			}
			seen[obj] = true
			// A slice declared inside the loop body is iteration-local:
			// its order does not depend on which key came first.
			if obj.Pos() >= rng.Body.Pos() && obj.Pos() <= rng.Body.End() {
				continue
			}
			if !canonicalizedAfter(pass, fs.body, rng.End(), obj) {
				pass.Reportf(id.Pos(), "slice %q collects map-range elements in randomized order and is never canonically sorted afterwards; sort it before it reaches results (sort before summing)", id.Name)
			}
		}
		return true
	})
}

// canonicalizedAfter reports whether, after pos and within body, obj is
// passed to a call whose name matches canonicalizerPat (sort.*, slices
// sorting helpers, detSum, canonical*). The object may reach the call as
// an argument or as the method receiver (sv.sortByID()), and one level
// of aliasing is followed: a variable assigned from an expression that
// mentions obj — the collect-into-struct idiom,
// sv := SparseVec{ids: ids, ws: ws} — counts as obj for both checks.
// Ascending-ID slice accumulation built this way is canonical and must
// not be flagged.
func canonicalizedAfter(pass *Pass, body *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	objs := map[types.Object]bool{obj: true}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || !mentionsObject(pass, rhs, obj) {
				continue
			}
			if o := pass.Info.ObjectOf(id); o != nil {
				objs[o] = true
			}
		}
		return true
	})
	mentionsAny := func(e ast.Expr) bool {
		for o := range objs {
			if mentionsObject(pass, e, o) {
				return true
			}
		}
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		name := ""
		var recv ast.Expr
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
			recv = fun.X
			if id, ok := fun.X.(*ast.Ident); ok {
				if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok {
					p := pn.Imported().Path()
					recv = nil
					if p == "sort" || p == "slices" {
						name = "sort" + name
					}
				}
			}
		}
		if !canonicalizerPat.MatchString(name) {
			return true
		}
		if recv != nil && mentionsAny(recv) {
			found = true
			return false
		}
		for _, arg := range call.Args {
			if mentionsAny(arg) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// mentionsObject reports whether the expression references obj.
func mentionsObject(pass *Pass, e ast.Expr, obj types.Object) bool {
	hit := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
			hit = true
			return false
		}
		return !hit
	})
	return hit
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}
