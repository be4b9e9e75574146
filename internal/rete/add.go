package rete

import (
	"slices"

	"soarpsme/internal/wme"
)

// This file implements the run-time state-update algorithm of paper §5.2.
//
// When a chunk is added at quiescence, its unshared suffix of nodes is
// empty of state. The update runs working memory through the alpha paths
// that feed the new nodes (InjectUpdate), and the *last shared node* is
// specially executed to pass down the partial instantiations it has stored
// (SeedUpdateTasks). Because new node IDs are strictly larger than all old
// IDs and sharing is lost monotonically along a production's chain,
// "ID >= FirstNewID" identifies exactly the nodes to update. Both sources
// activate only such nodes, and every child of a new node is new, so unlike
// the paper the task queues need no filter on older nodes; the update runs
// with the full parallelism of the match (Figure 6-9).

// SeedUpdateTasks builds the "last shared node" replay tasks: for every
// boundary node (a new node whose left — or, for bilinear joins, right —
// input comes from a pre-existing node), one activation per stored output
// token of that shared parent. The caller must also run every wme through
// InjectUpdate.
func (nw *Network) SeedUpdateTasks(info *AddInfo) []*Task {
	var seeds []*Task
	isNew := func(n *BetaNode) bool { return n != nil && n.ID >= info.FirstNewID }
	for _, f := range info.boundary {
		if f.parent == nil {
			// Top-level joins hold the dummy token implicitly; their state
			// comes entirely from the WM right-replay.
			continue
		}
		if !isNew(f.parent) {
			for _, tok := range nw.dumpOutputs(f.parent, info.FirstNewID) {
				seeds = append(seeds, &Task{Node: f, Dir: dirLeft, Op: wme.Add, tok: tok})
			}
		}
		if f.Kind == KindJoinBB && !isNew(f.rightParent) {
			for _, tok := range nw.dumpOutputs(f.rightParent, info.FirstNewID) {
				seeds = append(seeds, &Task{Node: f, Dir: DirRight, Op: wme.Add, tok: tok})
			}
		}
	}
	return seeds
}

// dumpOutputs reconstructs the output-token set of a shared node p by
// reading the left memory of one of its pre-existing children (every
// child's left store holds exactly p's outputs). p == nil is the dummy
// top, whose single output is the empty token.
func (nw *Network) dumpOutputs(p *BetaNode, firstNew NodeID) []*Token {
	if p == nil {
		return []*Token{DummyTop}
	}
	for _, c := range nw.childrenOf(p) {
		if c.ID >= firstNew {
			continue
		}
		switch c.Kind {
		case KindJoin, KindNot:
			if c.nEqTests == 0 {
				return nw.Mem.dumpLeftAt(c.ID, keySeed)
			}
			return nw.Mem.dumpLeft(c.ID, nw.Mem.lines)
		case KindNCC, KindP:
			return nw.Mem.dumpLeft(c.ID, nw.Mem.lines)
		case KindJoinBB:
			if c.parent == p {
				return nw.Mem.dumpLeft(c.ID, nw.Mem.lines)
			}
			return nw.Mem.dumpRightSubs(c.ID)
		case KindNCCPartner:
			// The partner stores its inputs as sub-results keyed under
			// its NCC node's ID.
			return nw.Mem.dumpRightSubs(c.partner.ID)
		}
	}
	// p existed before this addition, so it must have had a child; an
	// empty answer here means p simply has no stored outputs yet.
	return nil
}

// InjectUpdate is the state update's right replay of one live wme: the alpha
// walk of Inject confined to the paths info marks (the memories feeding a
// new join or not node, and the test nodes above them), emitting at a marked
// memory only its new successors. That is exactly what Inject would emit for
// w with every node below info.FirstNewID dropped, in the same order: a
// memory off the marked paths has no new successor, and the new successors
// of a memory are a suffix of its list, because IDs are handed out in
// creation order and successors are appended as they are created.
func (nw *Network) InjectUpdate(info *AddInfo, w *wme.WME, emit InjectFn) {
	if root := nw.alphaRoot(w.Class); root != nil && info.walks(root.id) {
		nw.walkAlpha(root, wme.Delta{Op: wme.Add, WME: w}, info, emit)
	}
}

// walks reports whether an alpha walk for inf visits alpha node or memory
// id: a match's walk (inf nil) visits every one, a state update's only the
// update paths (updPath).
func (inf *AddInfo) walks(id NodeID) bool {
	if inf == nil {
		return true
	}
	_, ok := slices.BinarySearch(inf.updPath, id)
	return ok
}

// reached returns the successors of a memory at which an alpha walk for inf
// emits: all of succs in a match's walk (inf nil), and in a state update's
// the new ones — the tail of succs, which is in ID order.
func (inf *AddInfo) reached(succs []*BetaNode) []*BetaNode {
	if inf == nil {
		return succs
	}
	k := len(succs)
	for k > 0 && succs[k-1].ID >= inf.FirstNewID {
		k--
	}
	return succs[k:]
}
