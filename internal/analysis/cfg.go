package analysis

import (
	"go/ast"
)

// This file is the dataflow core added for the deep analyzers (DESIGN.md
// §15): a statement-level control-flow graph per function body plus a
// small forward worklist solver. The PR 4 analyzers are syntactic; the
// alloc and locksafety passes need "on all paths" and "on any path"
// questions (is every pooled buffer Put before return? is a lock still
// held at some exit?), which are answered by running a transfer
// function over this graph to a fixed point.
//
// The graph is deliberately modest: blocks hold statements (plus
// condition expressions wrapped as pseudo-statements so transfers see
// calls inside `if w.Flush() != nil`), and the builder covers the
// control flow the module actually uses — if/else, for/range,
// switch/type-switch, select, return, break/continue (with labels),
// defer (recorded per function, not as edges), and panic calls as
// exits. goto is handled conservatively by edging to the function exit.

// cfgBlock is one straight-line run of statements.
type cfgBlock struct {
	nodes []ast.Node // ast.Stmt, or ast.Expr for branch conditions
	succs []*cfgBlock
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	entry  *cfgBlock
	exit   *cfgBlock // virtual: every return/panic/fallthrough-out edges here
	blocks []*cfgBlock
	// defers lists the deferred calls in source order; analyses that
	// model "runs at every exit" semantics (defer mu.Unlock) consult it
	// directly rather than via edges.
	defers []*ast.DeferStmt
}

// cfgBuilder tracks the current insertion point and the break/continue
// targets of the enclosing loops and switches.
type cfgBuilder struct {
	g   *funcCFG
	cur *cfgBlock
	// loopStack entries carry the targets a break/continue resolves to;
	// label is non-empty for labeled statements.
	loopStack []loopTargets
}

type loopTargets struct {
	label      string
	breakTo    *cfgBlock
	continueTo *cfgBlock // nil for switch/select (continue skips them)
}

// buildCFG constructs the graph for a function body. Nested function
// literals are opaque: their bodies get their own graphs when the
// analyzer visits them via forEachFunc.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	g := &funcCFG{}
	b := &cfgBuilder{g: g}
	g.entry = b.newBlock()
	g.exit = b.newBlock()
	b.cur = g.entry
	b.stmts(body.List)
	b.edge(b.cur, g.exit)
	return g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock) {
	if from == nil || to == nil {
		return
	}
	from.succs = append(from.succs, to)
}

// startBlock seals cur with an edge to next and makes next current.
func (b *cfgBuilder) startBlock(next *cfgBlock) {
	b.edge(b.cur, next)
	b.cur = next
}

func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.cur.nodes = append(b.cur.nodes, n)
	}
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt lowers one statement; label is the name of an enclosing
// LabeledStmt when s is its body.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmts(st.List)

	case *ast.LabeledStmt:
		b.stmt(st.Stmt, st.Label.Name)

	case *ast.IfStmt:
		if st.Init != nil {
			b.stmt(st.Init, "")
		}
		b.add(st.Cond)
		condBlk := b.cur
		thenBlk := b.newBlock()
		after := b.newBlock()
		b.edge(condBlk, thenBlk)
		b.cur = thenBlk
		b.stmts(st.Body.List)
		b.edge(b.cur, after)
		if st.Else != nil {
			elseBlk := b.newBlock()
			b.edge(condBlk, elseBlk)
			b.cur = elseBlk
			b.stmt(st.Else, "")
			b.edge(b.cur, after)
		} else {
			b.edge(condBlk, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if st.Init != nil {
			b.stmt(st.Init, "")
		}
		head := b.newBlock()
		body := b.newBlock()
		post := b.newBlock()
		after := b.newBlock()
		b.startBlock(head)
		if st.Cond != nil {
			b.add(st.Cond)
			b.edge(head, after) // cond false
		}
		// A cond-less `for {}` only leaves via break/return, so no
		// head→after edge.
		b.edge(head, body)
		b.loopStack = append(b.loopStack, loopTargets{label: label, breakTo: after, continueTo: post})
		b.cur = body
		b.stmts(st.Body.List)
		b.loopStack = b.loopStack[:len(b.loopStack)-1]
		b.edge(b.cur, post)
		b.cur = post
		if st.Post != nil {
			b.stmt(st.Post, "")
		}
		b.edge(b.cur, head)
		b.cur = after

	case *ast.RangeStmt:
		b.add(st.X)
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.startBlock(head)
		b.edge(head, body)
		b.edge(head, after) // empty collection
		b.loopStack = append(b.loopStack, loopTargets{label: label, breakTo: after, continueTo: head})
		b.cur = body
		if st.Key != nil || st.Value != nil {
			// The per-iteration assignment is implicit; expose the range
			// vars as part of the body's first block via the statement
			// itself so transfers can see the RangeStmt if they care.
			b.add(st)
		}
		b.stmts(st.Body.List)
		b.loopStack = b.loopStack[:len(b.loopStack)-1]
		b.edge(b.cur, head)
		b.cur = after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var init ast.Stmt
		var tag ast.Node
		var bodyList []ast.Stmt
		if sw, ok := st.(*ast.SwitchStmt); ok {
			init, tag, bodyList = sw.Init, sw.Tag, sw.Body.List
		} else {
			ts := st.(*ast.TypeSwitchStmt)
			init, tag, bodyList = ts.Init, ts.Assign, ts.Body.List
		}
		if init != nil {
			b.stmt(init, "")
		}
		if tag != nil {
			b.add(tag)
		}
		head := b.cur
		after := b.newBlock()
		b.loopStack = append(b.loopStack, loopTargets{label: label, breakTo: after})
		hasDefault := false
		var prevBody *cfgBlock // for fallthrough
		for _, cs := range bodyList {
			cc, ok := cs.(*ast.CaseClause)
			if !ok {
				continue
			}
			if cc.List == nil {
				hasDefault = true
			}
			caseBlk := b.newBlock()
			b.edge(head, caseBlk)
			if prevBody != nil {
				b.edge(prevBody, caseBlk) // fallthrough from previous case
			}
			prevBody = nil
			b.cur = caseBlk
			for _, e := range cc.List {
				b.add(e)
			}
			fallsThrough := false
			if n := len(cc.Body); n > 0 {
				if br, ok := cc.Body[n-1].(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
					fallsThrough = true
				}
			}
			b.stmts(cc.Body)
			if fallsThrough {
				prevBody = b.cur
			} else {
				b.edge(b.cur, after)
			}
		}
		if prevBody != nil {
			b.edge(prevBody, after)
		}
		b.loopStack = b.loopStack[:len(b.loopStack)-1]
		if !hasDefault {
			b.edge(head, after)
		}
		b.cur = after

	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock()
		b.loopStack = append(b.loopStack, loopTargets{label: label, breakTo: after})
		for _, cs := range st.Body.List {
			cc, ok := cs.(*ast.CommClause)
			if !ok {
				continue
			}
			caseBlk := b.newBlock()
			b.edge(head, caseBlk)
			b.cur = caseBlk
			if cc.Comm != nil {
				b.stmt(cc.Comm, "")
			}
			b.stmts(cc.Body)
			b.edge(b.cur, after)
		}
		b.loopStack = b.loopStack[:len(b.loopStack)-1]
		b.cur = after

	case *ast.ReturnStmt:
		b.add(st)
		b.edge(b.cur, b.g.exit)
		b.cur = b.newBlock() // unreachable continuation

	case *ast.BranchStmt:
		switch st.Tok.String() {
		case "break":
			b.branchTo(st.Label, true)
		case "continue":
			b.branchTo(st.Label, false)
		case "goto":
			// Conservative: treat as leaving the analyzable region.
			b.edge(b.cur, b.g.exit)
			b.cur = b.newBlock()
		case "fallthrough":
			// Edges handled by the switch lowering.
		}

	case *ast.DeferStmt:
		b.add(st)
		b.g.defers = append(b.g.defers, st)

	case *ast.ExprStmt:
		b.add(st)
		if isPanicCall(st.X) {
			b.edge(b.cur, b.g.exit)
			b.cur = b.newBlock()
		}

	default:
		b.add(st)
	}
}

// branchTo wires a break/continue to its loop target; break with
// isBreak=true, continue otherwise. Unknown labels fall back to the
// function exit (conservative).
func (b *cfgBuilder) branchTo(label *ast.Ident, isBreak bool) {
	name := ""
	if label != nil {
		name = label.Name
	}
	for i := len(b.loopStack) - 1; i >= 0; i-- {
		lt := b.loopStack[i]
		if name != "" && lt.label != name {
			continue
		}
		target := lt.breakTo
		if !isBreak {
			target = lt.continueTo
			if target == nil {
				continue // continue skips switch/select frames
			}
		}
		b.edge(b.cur, target)
		b.cur = b.newBlock()
		return
	}
	b.edge(b.cur, b.g.exit)
	b.cur = b.newBlock()
}

func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// flowAnalysis is a forward dataflow problem over a funcCFG. transfer
// must be PURE — the worklist revisits blocks until the fixed point, so
// findings are reported in a separate pass over the solved facts (see
// solveForward's result). Facts are small copy-on-write maps.
type flowAnalysis[F any] interface {
	// entryFact is the fact at function entry.
	entryFact() F
	// transfer folds one node (statement or condition expression) into
	// the fact, returning the outgoing fact. Must not report findings.
	transfer(fact F, n ast.Node) F
	// merge joins two facts at a control-flow join.
	merge(a, b F) F
	// equal reports whether two facts are the same (fixed-point test).
	equal(a, b F) bool
}

// flowResult is the solved dataflow: the fact at entry to each reached
// block, plus the fact reaching the virtual exit. Analyzers do their
// reporting by re-walking blocks in source order with transfer, checking
// invariants node by node against these entry facts — one deterministic
// sweep, no duplicate reports from worklist revisits.
type flowResult[F any] struct {
	in   map[*cfgBlock]F
	exit F
}

// solveForward runs the analysis over the graph to a fixed point.
func solveForward[F any](g *funcCFG, a flowAnalysis[F]) flowResult[F] {
	in := make(map[*cfgBlock]F, len(g.blocks))
	out := make(map[*cfgBlock]F, len(g.blocks))
	haveIn := make(map[*cfgBlock]bool, len(g.blocks))
	haveOut := make(map[*cfgBlock]bool, len(g.blocks))

	in[g.entry] = a.entryFact()
	haveIn[g.entry] = true
	work := []*cfgBlock{g.entry}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		fact := in[blk]
		for _, n := range blk.nodes {
			fact = a.transfer(fact, n)
		}
		if haveOut[blk] && a.equal(out[blk], fact) {
			continue
		}
		out[blk] = fact
		haveOut[blk] = true
		for _, succ := range blk.succs {
			next := fact
			if haveIn[succ] {
				next = a.merge(in[succ], fact)
				if a.equal(next, in[succ]) {
					continue
				}
			}
			in[succ] = next
			haveIn[succ] = true
			work = append(work, succ)
		}
	}
	res := flowResult[F]{in: in}
	if f, ok := in[g.exit]; ok {
		res.exit = f
	} else {
		res.exit = a.entryFact()
	}
	return res
}

// eachReachedBlock visits the graph's reached blocks in build (source)
// order, handing each its solved entry fact; unreached blocks (dead code
// after return) are skipped.
func eachReachedBlock[F any](g *funcCFG, res flowResult[F], fn func(blk *cfgBlock, entry F)) {
	for _, blk := range g.blocks {
		entry, ok := res.in[blk]
		if !ok {
			continue
		}
		fn(blk, entry)
	}
}
