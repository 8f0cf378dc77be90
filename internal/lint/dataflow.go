package lint

import "go/ast"

// This file is the dataflow half of the layer cfg.go provides: small,
// purpose-built path queries over a function's CFG. They are phrased as
// *may* analyses over the over-approximated graph, which makes the
// analyzers' *must* obligations sound: "some path reaches this point
// without an Unlock" can only over-report, never miss.

// eventFn classifies AST nodes as events for a path query (an Unlock
// call, ...).
type eventFn func(ast.Node) bool

// hasEvent reports whether any node of the block satisfies ev.
func (blk *cfgBlock) hasEvent(ev eventFn) bool {
	found := false
	blk.forEachNode(func(n ast.Node) bool {
		if found {
			return false
		}
		if ev(n) {
			found = true
			return false
		}
		return true
	})
	return found
}

// eventsAround reports whether an ev node occurs before (resp. after)
// the target node in the block's straight-line execution order. The
// target itself never counts as an event.
func (blk *cfgBlock) eventsAround(target ast.Node, ev eventFn) (before, after bool) {
	passed := false
	blk.forEachNode(func(n ast.Node) bool {
		if n == target {
			passed = true
			return true
		}
		if ev(n) {
			if passed {
				after = true
			} else {
				before = true
			}
		}
		return true
	})
	return before, after
}

// reachesStartWithout computes, per block, whether some path from the
// function entry to the block's *start* executes no ev node. The entry
// block's start is trivially reachable event-free.
func reachesStartWithout(g *cfg, ev eventFn) []bool {
	clean := make([]bool, len(g.blocks))
	hasEv := make([]bool, len(g.blocks))
	for i, b := range g.blocks {
		hasEv[i] = b.hasEvent(ev)
	}
	clean[g.entry.index] = true
	work := []*cfgBlock{g.entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		if hasEv[b.index] {
			continue // every path through b executes the event
		}
		for _, s := range b.succs {
			if !clean[s.index] {
				clean[s.index] = true
				work = append(work, s)
			}
		}
	}
	return clean
}

// reachesExitWithout computes, per block, whether from the block's *end*
// some path to a function exit executes no further ev node. Exit blocks
// (returns, or no successors) qualify trivially.
func reachesExitWithout(g *cfg, ev eventFn) []bool {
	clean := make([]bool, len(g.blocks))
	hasEv := make([]bool, len(g.blocks))
	for i, b := range g.blocks {
		hasEv[i] = b.hasEvent(ev)
	}
	var work []*cfgBlock
	for _, b := range g.exits() {
		clean[b.index] = true
		work = append(work, b)
	}
	// preds index for the backward sweep.
	preds := make([][]*cfgBlock, len(g.blocks))
	for _, b := range g.blocks {
		for _, s := range b.succs {
			preds[s.index] = append(preds[s.index], b)
		}
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		// From a predecessor's end, taking the edge into b executes b's
		// nodes; the path stays event-free only if b itself is clean.
		if hasEv[b.index] {
			continue
		}
		for _, p := range preds[b.index] {
			if !clean[p.index] {
				clean[p.index] = true
				work = append(work, p)
			}
		}
	}
	return clean
}

// walkWhileHeld visits every node reachable from the node `from` in
// block `start` (exclusive) along CFG paths that have not yet executed a
// node satisfying `release`. It is the critical-section walker behind
// lockhold: from = the Lock call, release = the matching Unlock. Cycles
// are cut with a per-block visited set; visiting stops along a path as
// soon as release fires (the releasing node itself is not visited).
func walkWhileHeld(g *cfg, start *cfgBlock, from ast.Node, release eventFn, visit func(ast.Node)) {
	// Tail of the starting block: nodes after `from`.
	passed := false
	released := false
	start.forEachNode(func(n ast.Node) bool {
		if n == from {
			passed = true
			return true
		}
		if !passed || released {
			return true
		}
		if release(n) {
			released = true
			return false
		}
		visit(n)
		return true
	})
	if released {
		return
	}
	seen := make([]bool, len(g.blocks))
	work := []*cfgBlock{}
	push := func(b *cfgBlock) {
		if !seen[b.index] {
			seen[b.index] = true
			work = append(work, b)
		}
	}
	for _, s := range start.succs {
		push(s)
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		rel := false
		b.forEachNode(func(n ast.Node) bool {
			if rel {
				return false
			}
			if release(n) {
				rel = true
				return false
			}
			visit(n)
			return true
		})
		if rel {
			continue
		}
		for _, s := range b.succs {
			push(s)
		}
	}
}
