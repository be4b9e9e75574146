package rete

import (
	"fmt"

	"soarpsme/internal/wme"
)

// auditMaxErrors bounds the error list a single audit returns; a corrupted
// table would otherwise produce one error per entry.
const auditMaxErrors = 20

// Audit cross-checks the global token memories against working memory and
// the compiled network. It must run at quiescence (no activations in
// flight) and verifies, per the ISSUE's invariant list:
//
//   - no outstanding tombstones (a leftover tombstone is a lost conjugate
//     pair);
//   - hash-line ownership: every entry lives on the line its (node, key)
//     hashes to — an entry on the wrong line is invisible to matching;
//   - every entry's node ID names a two-input or P node in the network;
//   - stored keys equal the keys the owning node would recompute from the
//     stored token/wme (join, not, NCC, NCC-partner, bilinear, P);
//   - every wme referenced by a right entry or reachable through a stored
//     token is the live WM object with that ID (alpha/beta vs. WM
//     cross-check, backward direction);
//   - every live wme's alpha walk finds a live right entry at each
//     destination join/not node (forward direction: no lost right inserts);
//   - not/NCC blocking counts equal a recount of the matching right
//     entries on the entry's line;
//   - no duplicate live entries (a duplicate means a double insert
//     slipped past the insert-then-scan discipline);
//   - the per-node unlink counters equal a recount of the live entries
//     actually stored for each node — in particular an excised node must
//     have zero of both (a stale counter would wrongly suppress, or fail
//     to suppress, activations).
//
// A clean audit returns nil. The engine exposes this as AuditInvariants,
// which additionally cross-checks P-node tokens against the conflict set.
func (nw *Network) Audit(wm *wme.Memory) []error {
	var errs []error
	add := func(format string, args ...any) bool {
		if len(errs) >= auditMaxErrors {
			return false
		}
		errs = append(errs, fmt.Errorf(format, args...))
		return len(errs) < auditMaxErrors
	}

	nodes := map[NodeID]*BetaNode{}
	nw.walkBeta(func(n *BetaNode) { nodes[n.ID] = n })

	// liveWME reports whether w is the live WM object with its ID.
	liveWME := func(w *wme.WME) bool { return w != nil && wm.Get(w.ID) == w }
	// liveToken checks every wme bound in t.
	var liveToken func(t *Token) *wme.WME
	liveToken = func(t *Token) *wme.WME {
		for t != nil {
			if t.l != nil {
				if bad := liveToken(t.l); bad != nil {
					return bad
				}
				t = t.r
				continue
			}
			if t.w != nil && !liveWME(t.w) {
				return t.w
			}
			t = t.parent
		}
		return nil
	}

	m := nw.Mem
	leftTally := map[NodeID]int32{}
	rightTally := map[NodeID]int32{}
	for i := range m.lines {
		l := &m.lines[i]
		l.lock.Lock()
		for j := len(l.left) - 1; j >= 0; j-- {
			e := &l.left[j]
			if e.tomb {
				add("line %d: left tombstone at node %d (lost conjugate pair)", i, e.node)
				continue
			}
			leftTally[e.node]++
			if m.line(e.node, e.key) != l {
				add("line %d: left entry (node %d, key %#x) on wrong line", i, e.node, e.key)
			}
			n := nodes[e.node]
			if n == nil {
				add("line %d: left entry for unknown node %d", i, e.node)
				continue
			}
			if bad := liveToken(e.tok); bad != nil {
				add("node %v: stored token %v references dead wme %d", n, e.tok, bad.ID)
			}
			if want, ok := leftKeyFor(n, e.tok); ok && want != e.key {
				add("node %v: left key %#x != recomputed %#x for token %v", n, e.key, want, e.tok)
			}
			if n.Kind == KindNot || n.Kind == KindNCC {
				if got := recountBlockers(l, n, e); got != e.count {
					add("node %v: token %v blocking count %d != recount %d", n, e.tok, e.count, got)
				}
			}
			for _, d := range l.left[:j] {
				if !d.tomb && d.node == e.node && d.key == e.key && d.tok.Equal(e.tok) {
					add("node %v: duplicate left entry for token %v", n, e.tok)
					break
				}
			}
		}
		for j := len(l.right) - 1; j >= 0; j-- {
			e := &l.right[j]
			if e.tomb {
				add("line %d: right tombstone at node %d (lost conjugate pair)", i, e.node)
				continue
			}
			rightTally[e.node]++
			if m.line(e.node, e.key) != l {
				add("line %d: right entry (node %d, key %#x) on wrong line", i, e.node, e.key)
			}
			n := nodes[e.node]
			if n == nil {
				add("line %d: right entry for unknown node %d", i, e.node)
				continue
			}
			switch {
			case e.w != nil:
				if !liveWME(e.w) {
					add("node %v: right entry references dead wme %d", n, e.w.ID)
				}
				if (n.Kind == KindJoin || n.Kind == KindNot) && n.rightKeyFromWME(e.w) != e.key {
					add("node %v: right key %#x != recomputed %#x for wme %d", n, e.key, n.rightKeyFromWME(e.w), e.w.ID)
				}
			case e.sub != nil:
				if bad := liveToken(e.owner); bad != nil {
					add("node %v: sub-result owner %v references dead wme %d", n, e.owner, bad.ID)
				}
				if bad := liveToken(e.sub); bad != nil {
					add("node %v: sub-result %v references dead wme %d", n, e.sub, bad.ID)
				}
				if want, ok := subKeyFor(n, e.owner, e.sub); ok && want != e.key {
					add("node %v: sub-result key %#x != recomputed %#x", n, e.key, want)
				}
			}
			for _, d := range l.right[:j] {
				if d.tomb || d.node != e.node || d.key != e.key {
					continue
				}
				if (e.w != nil && d.w == e.w) ||
					(e.sub != nil && d.sub != nil && d.sub.Equal(e.sub) && d.owner.Equal(e.owner)) {
					add("node %v: duplicate right entry (key %#x)", n, e.key)
					break
				}
			}
		}
		l.lock.Unlock()
		if len(errs) >= auditMaxErrors {
			errs = append(errs, fmt.Errorf("audit: error limit reached, stopping"))
			return errs
		}
	}

	// Unlink-counter cross-check: every counter slot must equal the number
	// of live entries recounted above (zero for nodes with none, including
	// excised nodes whose IDs may linger in the counter arrays).
	for id := range m.nc.slots {
		node := NodeID(id)
		if got, want := m.nc.slots[id].left.Load(), leftTally[node]; got != want {
			if !add("node %v: left unlink counter %d != live entries %d", nodes[node], got, want) {
				break
			}
		}
		if got, want := m.nc.slots[id].right.Load(), rightTally[node]; got != want {
			if !add("node %v: right unlink counter %d != live entries %d", nodes[node], got, want) {
				break
			}
		}
	}

	// Forward cross-check: every live wme must be present in the right
	// memory of every join/not node its alpha walk reaches.
	for _, w := range wm.All() {
		nw.Inject(wme.Delta{Op: wme.Add, WME: w}, func(n *BetaNode, ww *wme.WME, _ wme.Op) {
			if n.Kind != KindJoin && n.Kind != KindNot {
				return
			}
			key := n.rightKeyFromWME(ww)
			line := m.line(n.ID, key)
			line.lock.Lock()
			found := false
			for i := len(line.right) - 1; i >= 0; i-- {
				if e := &line.right[i]; !e.tomb && e.node == n.ID && e.key == key && e.w == ww {
					found = true
					break
				}
			}
			line.lock.Unlock()
			if !found {
				add("node %v: live wme %d missing from right memory (lost insert)", n, ww.ID)
			}
		})
		if len(errs) >= auditMaxErrors {
			break
		}
	}
	return errs
}

// leftKeyFor recomputes the hash key the owning node would store tok under;
// ok=false for kinds whose left entries the audit does not re-key.
func leftKeyFor(n *BetaNode, tok *Token) (key uint64, ok bool) {
	switch n.Kind {
	case KindJoin, KindNot:
		return n.leftKeyFromToken(tok), true
	case KindNCC, KindP:
		return tok.Hash(), true
	case KindJoinBB:
		return ctxOf(tok, int16(n.branchN)).Hash() ^ n.bbLeftKey(tok), true
	}
	return 0, false
}

// subKeyFor recomputes the key of a token-pair right entry.
func subKeyFor(n *BetaNode, owner, sub *Token) (key uint64, ok bool) {
	switch n.Kind {
	case KindNCC:
		// NCC-partner results are stored under the NCC node keyed by owner.
		return owner.Hash(), true
	case KindJoinBB:
		return owner.Hash() ^ n.bbRightKey(sub), true
	}
	return 0, false
}

// recountBlockers recomputes a not/NCC left entry's blocking count from the
// live right entries on its line (caller holds the line lock).
func recountBlockers(l *line, n *BetaNode, le *lEntry) int32 {
	var count int32
	for i := len(l.right) - 1; i >= 0; i-- {
		e := &l.right[i]
		if e.tomb || e.node != le.node || e.key != le.key {
			continue
		}
		switch n.Kind {
		case KindNot:
			if ok, _ := n.testPair(le.tok, e.w); ok {
				count++
			}
		case KindNCC:
			if e.owner.Equal(le.tok) {
				count++
			}
		}
	}
	return count
}

// LivePTokens counts the live tokens stored at P nodes — at quiescence this
// must equal the conflict set's size (the engine's AuditInvariants
// cross-checks the two).
func (nw *Network) LivePTokens() int {
	pnodes := map[NodeID]bool{}
	nw.walkBeta(func(n *BetaNode) {
		if n.Kind == KindP {
			pnodes[n.ID] = true
		}
	})
	m := nw.Mem
	count := 0
	for i := range m.lines {
		l := &m.lines[i]
		l.lock.Lock()
		for j := len(l.left) - 1; j >= 0; j-- {
			if e := &l.left[j]; !e.tomb && pnodes[e.node] {
				count++
			}
		}
		l.lock.Unlock()
	}
	return count
}
