package rete

import (
	"fmt"
	"slices"
)

// RemoveProduction excises a production from the network at quiescence:
// nodes used only by this production are detached and their stored state
// purged from the global token tables; nodes shared with other productions
// survive untouched. Live instantiations of the production are retracted
// from the conflict set. (OPS5's excise; PSM-E needed only addition for
// chunking, but removal completes run-time network modification and is the
// inverse used by long-running learning experiments.)
func (nw *Network) RemoveProduction(name string) error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	own := &nw.own
	prod := own.prods[name]
	if prod == nil {
		if nw.base.prods[name] == nil {
			return fmt.Errorf("rete: production %q not defined", name)
		}
		// The production's nodes belong to the shared image other sessions
		// are matching against; excising them here would mutate structures
		// read lock-free elsewhere.
		return fmt.Errorf("rete: production %q is part of a frozen shared topology and cannot be excised per-session", name)
	}

	// Retract the production's live instantiations.
	if nw.CS != nil {
		for _, tok := range nw.Mem.dumpLeft(prod.PNode.ID, nw.Mem.lines) {
			nw.CS.Retract(prod, tok)
		}
	}

	// Collect the production's node chain bottom-up: parents, bilinear
	// right parents, and NCC partners with their sub-chains.
	var chain []*BetaNode
	seen := map[NodeID]bool{}
	var walk func(n *BetaNode)
	walk = func(n *BetaNode) {
		for n != nil && !seen[n.ID] {
			seen[n.ID] = true
			chain = append(chain, n)
			if n.Kind == KindNCC && n.partner != nil {
				walk(n.partner)
			}
			if n.Kind == KindJoinBB {
				walk(n.rightParent)
			}
			n = n.parent
		}
	}
	walk(prod.PNode)

	// Decrement reference counts bottom-up; detach nodes that reach zero.
	// Base nodes the production reused are skipped entirely: they are
	// permanent (the shared image outlives every session) and their refs
	// field must not be written cross-session.
	for _, n := range chain {
		if nw.inBase(n.ID) {
			continue
		}
		n.refs--
		if n.refs > 0 {
			continue
		}
		nw.detach(n)
		nw.Mem.purgeNode(n.ID)
		if n.Kind != KindP {
			own.nTwoInput--
		}
	}

	delete(own.prods, name)
	for i, p := range own.prodOrder {
		if p == prod {
			own.prodOrder = append(own.prodOrder[:i], own.prodOrder[i+1:]...)
			break
		}
	}
	return nil
}

// detach unwires a dead own-layer node from its parents and alpha memory.
// Where one of those is a base node, the node comes off the own layer's
// splice list for it; the base structures themselves are never written.
func (nw *Network) detach(n *BetaNode) {
	own := &nw.own
	removeChild := func(list []*BetaNode) []*BetaNode {
		for i, c := range list {
			if c == n {
				return append(list[:i:i], list[i+1:]...)
			}
		}
		return list
	}
	unparent := func(p *BetaNode) {
		switch {
		case p == nil:
			own.topNodes = removeChild(own.topNodes)
		case nw.inBase(p.ID):
			own.betaKids[p.ID] = removeChild(own.betaKids[p.ID])
		default:
			p.children = removeChild(p.children)
		}
	}
	unparent(n.parent)
	if n.Kind == KindJoinBB && n.rightParent != nil {
		unparent(n.rightParent)
	}
	if am := n.alpha; am != nil {
		if nw.inBase(am.id) {
			own.alphaSuccs[am.id] = removeChild(own.alphaSuccs[am.id])
		} else {
			am.succs = removeChild(am.succs)
		}
	}
}

// purgeNode removes every memory entry stored under a node (both tables)
// and zeroes its unlink counters, so a later production re-using the slot
// range starts correctly unlinked. Like the dumps it takes no line lock:
// excise runs at quiescence.
func (m *Mem) purgeNode(node NodeID) {
	m.purgeCounts(node)
	for i := range m.lines {
		l := &m.lines[i]
		l.left = slices.DeleteFunc(l.left, func(e lEntry) bool { return e.node == node })
		l.right = slices.DeleteFunc(l.right, func(e rEntry) bool { return e.node == node })
	}
}
