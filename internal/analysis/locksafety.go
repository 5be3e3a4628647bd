package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockSafetyAnalyzer upgrades PR 4's syntactic concurrency bans to flow
// checks (DESIGN.md §7, §15):
//
//   - Lock/Unlock pairing — a sync.Mutex/RWMutex locked in a function
//     must be released on every path out of it, either by an explicit
//     Unlock before each return or by the defer discipline
//     (`mu.Lock(); defer mu.Unlock()`); re-locking a mutex that may
//     already be held on some path self-deadlocks.
//   - no lock across blocking waits — holding any lock across a channel
//     send/receive, a select, or a ctx.Done() wait turns a slow consumer
//     into a pipeline-wide stall (and can deadlock against the lock's
//     other users). The worker pool runs closures on its own goroutines
//     while the caller waits, so this is the invariant that keeps a
//     lock holder from stalling them.
//   - goroutine join — every `go` statement must hand its goroutine a
//     completion signal: a WaitGroup/errgroup Done with a matching Wait
//     in the launching function, a send into a channel (ownership
//     transferred to the channel's consumer), or a ctx.Done() select in
//     the body. A goroutine with none of these is unjoinable — nothing
//     can ever know it finished, which is how shutdown leaks workers.
var LockSafetyAnalyzer = &Analyzer{
	ID:  "locksafety",
	Doc: "locks released on every path, never held across channel/ctx waits; every goroutine joinable",
	Run: runLockSafety,
}

func runLockSafety(pass *Pass) {
	for _, file := range pass.Files {
		forEachFunc(file, func(fs funcScope) {
			checkLockFlow(pass, fs)
			checkGoroutineJoin(pass, fs)
		})
	}
}

// lockState tracks how one lock is held at a program point.
type lockState uint8

const (
	lockHeldDirect   lockState = iota // Lock()ed, no defer Unlock seen
	lockHeldDeferred                  // held now, released by defer at exit
)

// lockFact maps lock keys ("mu", "t.mu", "r.spanMu", with an "R" suffix
// for read locks) to their held state.
type lockFact map[string]lockState

type lockFlow struct{ pass *Pass }

func (lockFlow) entryFact() lockFact { return lockFact{} }

func (l lockFlow) transfer(fact lockFact, n ast.Node) lockFact {
	deferred := false
	if d, ok := n.(*ast.DeferStmt); ok {
		deferred = true
		n = d.Call
	}
	inspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, op := lockCallKey(l.pass, call)
		if key == "" {
			return true
		}
		switch op {
		case "Lock", "RLock":
			fact = cloneLockFact(fact)
			fact[key] = lockHeldDirect
		case "Unlock", "RUnlock":
			if deferred {
				if _, held := fact[key]; held {
					fact = cloneLockFact(fact)
					fact[key] = lockHeldDeferred
				}
			} else if _, held := fact[key]; held {
				fact = cloneLockFact(fact)
				delete(fact, key)
			}
		}
		return true
	})
	return fact
}

func (lockFlow) merge(a, b lockFact) lockFact {
	if len(a) == 0 && len(b) == 0 {
		return a
	}
	out := cloneLockFact(a)
	for k, s := range b {
		if cur, ok := out[k]; !ok || s < cur {
			// Direct (< deferred) dominates: a path that still owes an
			// explicit Unlock keeps the obligation through the join.
			out[k] = s
		}
	}
	return out
}

func (lockFlow) equal(a, b lockFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, s := range a {
		if bs, ok := b[k]; !ok || bs != s {
			return false
		}
	}
	return true
}

func cloneLockFact(f lockFact) lockFact {
	out := make(lockFact, len(f)+1)
	for k, s := range f {
		out[k] = s
	}
	return out
}

// lockCallKey resolves a call to (key, op) when it is a Lock/Unlock/
// RLock/RUnlock on a sync.Mutex/RWMutex (or sync.Locker) receiver with a
// trackable ident/selector spelling; key "" otherwise. Read locks get a
// distinct key so an RLock/RUnlock pair does not satisfy a Lock.
func lockCallKey(pass *Pass, call *ast.CallExpr) (string, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return "", ""
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	if !isSyncLockType(pass.TypeOf(sel.X)) {
		return "", ""
	}
	key, ok := exprKey(sel.X)
	if !ok {
		return "", ""
	}
	if op == "RLock" || op == "RUnlock" {
		key += "#R"
	}
	return key, op
}

// isSyncLockType reports whether t is sync.Mutex/RWMutex (possibly via
// pointer or embedding-free named wrapper) or the sync.Locker interface.
func isSyncLockType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	switch obj.Name() {
	case "Mutex", "RWMutex", "Locker":
		return true
	}
	return false
}

// checkLockFlow solves the lock dataflow and reports double locks, locks
// held across blocking operations, and locks still owed at exit.
func checkLockFlow(pass *Pass, fs funcScope) {
	hasLock := false
	inspectShallow(fs.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if key, op := lockCallKey(pass, call); key != "" && (op == "Lock" || op == "RLock") {
				hasLock = true
			}
		}
		return !hasLock
	})
	if !hasLock {
		return
	}
	g := buildCFG(fs.body)
	l := lockFlow{pass: pass}
	res := solveForward(g, l)

	type report struct {
		pos token.Pos
		msg string
	}
	var reports []report
	eachReachedBlock(g, res, func(blk *cfgBlock, fact lockFact) {
		for _, n := range blk.nodes {
			// Double lock: acquiring a lock that may already be held.
			inspectShallow(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if key, op := lockCallKey(pass, call); key != "" && (op == "Lock" || op == "RLock") {
					if _, held := fact[key]; held {
						reports = append(reports, report{call.Pos(),
							op + " of " + lockDisplay(key) + " which may already be held on some path (self-deadlock)"})
					}
				}
				return true
			})
			// Blocking waits while holding any lock.
			if len(fact) > 0 {
				if pos, what := blockingOp(pass, n); pos.IsValid() {
					keys := sortedLockKeys(fact)
					reports = append(reports, report{pos,
						what + " while holding " + lockDisplay(keys[0]) + " blocks every other user of the lock; release it before waiting"})
				}
			}
			fact = l.transfer(fact, n)
		}
	})
	// Locks owed at exit: held directly (no defer) on some path.
	for key, st := range res.exit {
		if st == lockHeldDirect {
			reports = append(reports, report{lockPos(pass, fs.body, key),
				lockDisplay(key) + " can reach a return while still held with no defer Unlock; add `defer " + lockDisplay(key) + ".Unlock()` after the Lock or release it on every path"})
		}
	}

	sort.Slice(reports, func(i, j int) bool {
		if reports[i].pos != reports[j].pos {
			return reports[i].pos < reports[j].pos
		}
		return reports[i].msg < reports[j].msg
	})
	seen := map[string]bool{}
	for _, r := range reports {
		k := pass.Fset.Position(r.pos).String() + r.msg
		if seen[k] {
			continue
		}
		seen[k] = true
		pass.Reportf(r.pos, "%s", r.msg)
	}
}

// lockDisplay strips the read-lock suffix for messages.
func lockDisplay(key string) string {
	if len(key) > 2 && key[len(key)-2:] == "#R" {
		return key[:len(key)-2]
	}
	return key
}

func sortedLockKeys(f lockFact) []string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lockPos finds the first Lock call on key in the body, for anchoring
// the held-at-exit report.
func lockPos(pass *Pass, body *ast.BlockStmt, key string) token.Pos {
	pos := body.Pos()
	found := false
	inspectShallow(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if k, op := lockCallKey(pass, call); k == key && (op == "Lock" || op == "RLock") {
				pos = call.Pos()
				found = true
				return false
			}
		}
		return true
	})
	return pos
}

// blockingOp reports whether node n is a potentially blocking channel or
// context wait: a send, a receive, a select with no default, or a
// range-over-channel.
func blockingOp(pass *Pass, n ast.Node) (token.Pos, string) {
	switch st := n.(type) {
	case *ast.SendStmt:
		return st.Arrow, "channel send"
	case *ast.SelectStmt:
		for _, cs := range st.Body.List {
			if cc, ok := cs.(*ast.CommClause); ok && cc.Comm == nil {
				return token.NoPos, "" // has default: non-blocking
			}
		}
		return st.Select, "select"
	case *ast.RangeStmt:
		if t := pass.TypeOf(st.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return st.For, "range over channel"
			}
		}
	case *ast.UnaryExpr:
		if st.Op == token.ARROW {
			return st.OpPos, "channel receive"
		}
	case *ast.ExprStmt:
		return blockingOp(pass, st.X)
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			if pos, what := blockingOp(pass, rhs); pos.IsValid() {
				return pos, what
			}
		}
	}
	return token.NoPos, ""
}

// checkGoroutineJoin flags go statements whose goroutine has no
// completion signal reaching the outside world.
func checkGoroutineJoin(pass *Pass, fs funcScope) {
	inspectShallow(fs.body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if goroutineJoined(pass, fs.body, g) {
			return true
		}
		pass.Reportf(g.Pos(), "goroutine has no completion signal (WaitGroup Done + Wait, a channel send, or a ctx.Done select); an unjoinable goroutine leaks past shutdown")
		return true
	})
}

// goroutineJoined applies the join heuristics to one go statement.
func goroutineJoined(pass *Pass, body *ast.BlockStmt, g *ast.GoStmt) bool {
	var goroutineBody ast.Node
	if fl, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		goroutineBody = fl.Body
	} else {
		// go someFunc(args): the callee owns the completion protocol; a
		// WaitGroup or channel among the arguments counts as a signal.
		for _, arg := range g.Call.Args {
			if t := pass.TypeOf(arg); t != nil {
				if isWaitGroupish(t) {
					return waitsInBody(body)
				}
				if _, ok := t.Underlying().(*types.Chan); ok {
					return true
				}
			}
		}
		return false
	}
	signalled := false
	ast.Inspect(goroutineBody, func(m ast.Node) bool {
		if signalled {
			return false
		}
		switch x := m.(type) {
		case *ast.SendStmt:
			signalled = true // ownership handed to the channel's consumer
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Done":
					// wg.Done (WaitGroup-shaped) — require a Wait in the
					// launching function; ctx.Done() handled below.
					if isWaitGroupish(pass.TypeOf(sel.X)) {
						signalled = waitsInBody(body)
					} else if isContextType(pass.TypeOf(sel.X)) {
						signalled = true
					}
				}
			}
		}
		return !signalled
	})
	return signalled
}

// isWaitGroupish reports whether t is sync.WaitGroup or an
// errgroup-shaped type (has Done or Wait in its method-set namespace and
// is named *Group/WaitGroup).
func isWaitGroupish(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	return name == "WaitGroup" || name == "Group"
}

// waitsInBody reports whether the launching function calls a .Wait().
func waitsInBody(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" && len(call.Args) == 0 {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
