package lint

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow half of driftlint's dataflow layer: a
// lightweight intra-procedural CFG built from a function body's AST,
// pure go/ast with no dependency beyond the standard library. The
// whole-program analyzers (lockhold, maporder, hotalloc) phrase their
// invariants as path properties — "no blocking op between Lock and
// Unlock" — and answer them by walking these blocks instead of guessing
// from syntax.
//
// The model is deliberately simple and conservative:
//
//   - Blocks are maximal straight-line statement runs; edges are the
//     possible successors. Both arms of every branch are assumed
//     reachable (no constant folding), so path queries over-approximate
//     the real executions — sound for "on all paths" obligations.
//   - panic(...) and calls to the fault injector's Check/Hit are NOT
//     treated as terminators: an analyzer asking "does every path reach
//     X" must not be satisfied by a path that dies in a panic.
//     Explicit `return` and terminating keywords end blocks.
//   - Deferred calls are collected per function into cfg.defers rather
//     than modeled as edges; analyzers that care (lockhold's
//     defer mu.Unlock()) look there.
//   - goto is resolved to its label when the label exists; break and
//     continue honor labels and loop/switch nesting.

// cfgBlock is one straight-line run of statements with its successor
// edges. index is the block's position in cfg.blocks (stable, used as a
// dataflow bitset key).
type cfgBlock struct {
	index int
	// nodes are the statements and (for branches) controlling
	// expressions executed in this block, in order.
	nodes []ast.Node
	succs []*cfgBlock
	// returns marks a block ending in an explicit return statement.
	returns bool
}

// cfg is the control-flow graph of one function body.
type cfg struct {
	blocks []*cfgBlock
	entry  *cfgBlock
	// defers lists every defer statement in the body, in source order,
	// including those nested in branches and loops.
	defers []*ast.DeferStmt
}

// exits returns the blocks control can leave the function from: blocks
// with an explicit return and blocks that fall off the end (no
// successors). Unreachable blocks with no successors are included — the
// over-approximation analyzers want.
func (g *cfg) exits() []*cfgBlock {
	var out []*cfgBlock
	for _, b := range g.blocks {
		if b.returns || len(b.succs) == 0 {
			out = append(out, b)
		}
	}
	return out
}

// cfgBuilder carries the loop/label context while translating an AST
// body into blocks.
type cfgBuilder struct {
	g *cfg
	// cur is the block statements are currently appended to; nil after a
	// terminator until the next statement starts a fresh block.
	cur *cfgBlock

	// breakTo / continueTo map the innermost enclosing loop or switch to
	// its exit and post blocks; the slices are stacks.
	breakTo    []*cfgBlock
	continueTo []*cfgBlock
	// labels maps label names to the blocks their statements start in
	// (for goto) and to the break/continue targets of labeled loops.
	labelBlocks   map[string]*cfgBlock
	labelBreak    map[string]*cfgBlock
	labelContinue map[string]*cfgBlock
	// gotos records unresolved forward gotos: the block the goto ends
	// and the label it targets.
	gotos []pendingGoto
}

type pendingGoto struct {
	from  *cfgBlock
	label string
}

// buildCFG translates a function body into a cfg. A nil body (external
// declaration) yields a single empty entry block.
func buildCFG(body *ast.BlockStmt) *cfg {
	b := &cfgBuilder{
		g:             &cfg{},
		labelBlocks:   map[string]*cfgBlock{},
		labelBreak:    map[string]*cfgBlock{},
		labelContinue: map[string]*cfgBlock{},
	}
	entry := b.newBlock()
	b.g.entry = entry
	b.cur = entry
	if body != nil {
		b.stmts(body.List)
	}
	for _, pg := range b.gotos {
		if target, ok := b.labelBlocks[pg.label]; ok {
			b.edge(pg.from, target)
		}
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

// edge adds from→to, deduplicating.
func (b *cfgBuilder) edge(from, to *cfgBlock) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
}

// startBlock ensures statements have a block to land in after a
// terminator made cur nil (the new block is unreachable unless a label
// or goto links it).
func (b *cfgBuilder) startBlock() *cfgBlock {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.IfStmt:
		cur := b.startBlock()
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Cond)
		thenB := b.newBlock()
		b.edge(cur, thenB)
		after := b.newBlock()
		b.cur = thenB
		b.stmts(s.Body.List)
		b.edge(b.cur, after)
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(cur, elseB)
			b.cur = elseB
			b.stmt(s.Else)
			b.edge(b.cur, after)
		} else {
			b.edge(cur, after)
		}
		b.cur = after

	case *ast.ForStmt:
		b.loop(s, "", s.Init, s.Cond, s.Post, s.Body)

	case *ast.RangeStmt:
		b.rangeLoop(s, "")

	case *ast.LabeledStmt:
		// The labeled statement starts a fresh block so gotos can target it.
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		b.labelBlocks[s.Label.Name] = head
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt:
			b.loop(inner, s.Label.Name, inner.Init, inner.Cond, inner.Post, inner.Body)
		case *ast.RangeStmt:
			b.rangeLoop(inner, s.Label.Name)
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// Labeled switch/select: break <label> exits it. Model the break
			// target, then build the statement normally.
			after := b.newBlock()
			b.labelBreak[s.Label.Name] = after
			b.stmt(inner)
			b.edge(b.cur, after)
			b.cur = after
		default:
			b.stmt(inner)
		}

	case *ast.SwitchStmt:
		b.switchLike(s.Init, s.Tag, s.Body, nil)

	case *ast.TypeSwitchStmt:
		b.switchLike(s.Init, nil, s.Body, s.Assign)

	case *ast.SelectStmt:
		// The select itself contributes no nodes: each arm's comm
		// statement lands in that arm's block, keeping paths separate.
		cur := b.startBlock()
		after := b.newBlock()
		b.breakTo = append(b.breakTo, after)
		for _, cc := range s.Body.List {
			comm := cc.(*ast.CommClause)
			arm := b.newBlock()
			b.edge(cur, arm)
			if comm.Comm != nil {
				arm.nodes = append(arm.nodes, comm.Comm)
			}
			b.cur = arm
			b.stmts(comm.Body)
			b.edge(b.cur, after)
		}
		b.breakTo = b.breakTo[:len(b.breakTo)-1]
		if len(s.Body.List) == 0 {
			b.edge(cur, after)
		}
		b.cur = after

	case *ast.BranchStmt:
		cur := b.startBlock()
		cur.nodes = append(cur.nodes, s)
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				b.edge(cur, b.labelBreak[s.Label.Name])
			} else if n := len(b.breakTo); n > 0 {
				b.edge(cur, b.breakTo[n-1])
			}
			b.cur = nil
		case token.CONTINUE:
			if s.Label != nil {
				b.edge(cur, b.labelContinue[s.Label.Name])
			} else if n := len(b.continueTo); n > 0 {
				b.edge(cur, b.continueTo[n-1])
			}
			b.cur = nil
		case token.GOTO:
			if s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{from: cur, label: s.Label.Name})
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// switchLike wires fallthrough edges; nothing to do here.
		}

	case *ast.ReturnStmt:
		cur := b.startBlock()
		cur.nodes = append(cur.nodes, s)
		cur.returns = true
		b.cur = nil

	case *ast.DeferStmt:
		cur := b.startBlock()
		cur.nodes = append(cur.nodes, s)
		b.g.defers = append(b.g.defers, s)

	default:
		cur := b.startBlock()
		cur.nodes = append(cur.nodes, s)
	}
}

// loop wires a for-loop: head (init+cond) → body → post → head, with
// head → after for loop exit. A nil cond makes `for {}` — the after
// block is then only reachable through break.
func (b *cfgBuilder) loop(_ ast.Stmt, label string, init ast.Stmt, cond ast.Expr, post ast.Stmt, body *ast.BlockStmt) {
	cur := b.startBlock()
	if init != nil {
		cur.nodes = append(cur.nodes, init)
	}
	head := b.newBlock()
	b.edge(cur, head)
	if cond != nil {
		head.nodes = append(head.nodes, cond)
	}
	after := b.newBlock()
	postB := b.newBlock()
	if post != nil {
		postB.nodes = append(postB.nodes, post)
	}
	b.edge(postB, head)
	if cond != nil {
		b.edge(head, after)
	}
	if label != "" {
		b.labelBreak[label] = after
		b.labelContinue[label] = postB
	}
	b.breakTo = append(b.breakTo, after)
	b.continueTo = append(b.continueTo, postB)
	bodyB := b.newBlock()
	b.edge(head, bodyB)
	b.cur = bodyB
	b.stmts(body.List)
	b.edge(b.cur, postB)
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]
	b.cur = after
}

// rangeLoop wires a range loop: head (the range expression, evaluated
// each conceptual iteration for dataflow purposes) → body → head, with
// head → after (a range loop always terminates or breaks).
func (b *cfgBuilder) rangeLoop(s *ast.RangeStmt, label string) {
	cur := b.startBlock()
	head := b.newBlock()
	b.edge(cur, head)
	// Only the range operands live in the head; the body statements get
	// their own blocks (storing the whole RangeStmt would fold the body
	// into the head and break path sensitivity).
	for _, e := range []ast.Expr{s.X, s.Key, s.Value} {
		if e != nil {
			head.nodes = append(head.nodes, e)
		}
	}
	after := b.newBlock()
	b.edge(head, after)
	if label != "" {
		b.labelBreak[label] = after
		b.labelContinue[label] = head
	}
	b.breakTo = append(b.breakTo, after)
	b.continueTo = append(b.continueTo, head)
	bodyB := b.newBlock()
	b.edge(head, bodyB)
	b.cur = bodyB
	b.stmts(s.Body.List)
	b.edge(b.cur, head)
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]
	b.cur = after
}

// switchLike wires switch and type-switch statements: the tag block
// fans out to every case arm (and to after when no default exists);
// fallthrough chains arms in source order.
func (b *cfgBuilder) switchLike(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, assign ast.Stmt) {
	cur := b.startBlock()
	if init != nil {
		cur.nodes = append(cur.nodes, init)
	}
	if tag != nil {
		cur.nodes = append(cur.nodes, tag)
	}
	if assign != nil {
		cur.nodes = append(cur.nodes, assign)
	}
	after := b.newBlock()
	b.breakTo = append(b.breakTo, after)
	hasDefault := false
	arms := make([]*cfgBlock, len(body.List))
	for i, cs := range body.List {
		cc := cs.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		arm := b.newBlock()
		arms[i] = arm
		b.edge(cur, arm)
		for _, e := range cc.List {
			arm.nodes = append(arm.nodes, e)
		}
	}
	for i, cs := range body.List {
		cc := cs.(*ast.CaseClause)
		b.cur = arms[i]
		b.stmts(cc.Body)
		if fallsThrough(cc.Body) && i+1 < len(arms) {
			b.edge(b.cur, arms[i+1])
			b.cur = nil
			continue
		}
		b.edge(b.cur, after)
	}
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	if !hasDefault {
		b.edge(cur, after)
	}
	b.cur = after
}

// fallsThrough reports whether a case body ends in a fallthrough.
func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// forEachNode visits the block's nodes and, within each, every nested
// expression — but does NOT descend into function literals: a closure's
// body is a different function with its own CFG.
func (blk *cfgBlock) forEachNode(fn func(ast.Node) bool) {
	for _, n := range blk.nodes {
		ast.Inspect(n, func(x ast.Node) bool {
			if _, isLit := x.(*ast.FuncLit); isLit {
				return false
			}
			if x == nil {
				return true
			}
			return fn(x)
		})
	}
}

// funcBodies yields every function body in a file — declarations and
// function literals.
func funcBodies(f *ast.File, fn func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fn(n, nil, n.Body)
			}
		case *ast.FuncLit:
			fn(nil, n, n.Body)
		}
		return true
	})
}
