package rete

import (
	"fmt"
	"strings"
	"testing"

	"soarpsme/internal/ops5"
	"soarpsme/internal/wme"
)

func TestMemLineBasics(t *testing.T) {
	var p Proc
	m := newMem(100) // rounds up to 128
	if m.NumLines() != 128 {
		t.Fatalf("NumLines = %d, want 128", m.NumLines())
	}
	tok := Extend(DummyTop, 0, mkWME(1))
	l := m.line(7, 99)
	l.lock.Lock()
	if l.addLeft(&p, 7, 99, tok, 2) {
		t.Fatalf("addLeft annihilated")
	}
	if e := l.findLeft(7, 99, tok); e == nil || e.tok != tok || e.count != 2 {
		t.Fatalf("entry accessors wrong")
	}
	l.addRight(&p, 7, 99, mkWME(2))
	l.addRight(&p, 7, 99, mkWME(3))
	countRight := func(node NodeID) (n int) {
		l.eachRight(&p, node, 99, func(*rEntry) { n++ })
		return n
	}
	if n := countRight(7); n != 2 {
		t.Fatalf("right entries = %d", n)
	}
	if n := countRight(8); n != 0 {
		t.Fatalf("right entries of the wrong node = %d", n)
	}
	l.lock.Unlock()
}

func TestMemTombstoneAnnihilation(t *testing.T) {
	var p Proc
	m := newMem(16)
	tok := Extend(DummyTop, 0, mkWME(1))
	l := m.line(3, 5)
	l.lock.Lock()
	// Delete before add: tombstone.
	if _, _, found := l.removeLeft(&p, 3, 5, ref{tok: tok}); found {
		t.Fatalf("remove of absent token found something")
	}
	// The add annihilates against the tombstone.
	if !l.addLeft(&p, 3, 5, Extend(DummyTop, 0, mkWME(1)), 0) {
		t.Fatalf("add not annihilated by tombstone")
	}
	l.lock.Unlock()
	if n := m.Tombstones(); n != 0 {
		t.Fatalf("tombstones left: %d", n)
	}

	// Same for the right side and sub-results.
	w := mkWME(9)
	l.lock.Lock()
	if l.removeRight(&p, 3, 5, w) {
		t.Fatalf("removeRight found absent wme")
	}
	if !l.addRight(&p, 3, 5, w) {
		t.Fatalf("addRight not annihilated")
	}
	owner := Extend(DummyTop, 0, mkWME(4))
	sub := Extend(owner, 1, mkWME(5))
	if l.removeSubResult(&p, 3, 5, owner, ref{tok: sub}) {
		t.Fatalf("removeSubResult found absent entry")
	}
	if !l.addSubResult(&p, 3, 5, owner, sub) {
		t.Fatalf("addSubResult not annihilated")
	}
	l.lock.Unlock()
	if n := m.Tombstones(); n != 0 {
		t.Fatalf("tombstones left after right-side: %d", n)
	}
}

// TestLineOrderAndRemoval pins the by-value line layout: scans visit
// entries newest first, a removal (a plain remove or an annihilation) keeps
// the order of the rest, and every vacated slot is cleared so that it pins
// no token or wme.
func TestLineOrderAndRemoval(t *testing.T) {
	var p Proc
	m := newMem(16)
	l := m.line(1, 1)
	toks := make([]*Token, 5)
	for i := range toks {
		toks[i] = Extend(DummyTop, 0, mkWME(uint64(i+1)))
	}
	scan := func() (got []*Token) {
		l.eachLeft(&p, 1, 1, func(e *lEntry) { got = append(got, e.tok) })
		return got
	}
	want := func(idx ...int) {
		t.Helper()
		got := scan()
		if len(got) != len(idx) {
			t.Fatalf("scan found %d tokens, want %d", len(got), len(idx))
		}
		for i, k := range idx {
			if got[i] != toks[k] {
				t.Fatalf("scan position %d holds token %v, want %v", i, got[i], toks[k])
			}
		}
		for _, e := range l.left[len(l.left):cap(l.left)] {
			if e != (lEntry{}) {
				t.Fatalf("a vacated slot still holds %+v", e)
			}
		}
	}
	l.lock.Lock()
	defer l.lock.Unlock()
	l.addLeft(&p, 1, 1, toks[0], 0)
	l.addLeft(&p, 1, 1, toks[1], 0)
	// A remove that overtakes its add leaves a tombstone among the entries.
	if _, _, found := l.removeLeft(&p, 1, 1, ref{tok: toks[4]}); found {
		t.Fatalf("removeLeft found an absent token")
	}
	l.addLeft(&p, 1, 1, toks[2], 0)
	l.addLeft(&p, 1, 1, toks[3], 0)
	want(3, 2, 1, 0)
	if _, _, found := l.removeLeft(&p, 1, 1, ref{tok: toks[1]}); !found {
		t.Fatalf("removeLeft missed a stored token")
	}
	want(3, 2, 0)
	if !l.addLeft(&p, 1, 1, toks[4], 0) {
		t.Fatalf("add not annihilated by its tombstone")
	}
	want(3, 2, 0)
	if len(l.left) != 3 {
		t.Fatalf("the line holds %d entries after the annihilation, want 3", len(l.left))
	}
}

func TestDumpRightSubsAndEntries(t *testing.T) {
	var p Proc
	m := newMem(16)
	owner := Extend(DummyTop, 0, mkWME(1))
	s1 := Extend(owner, 1, mkWME(2))
	s2 := Extend(owner, 1, mkWME(3))
	l := m.line(11, owner.Hash())
	l.lock.Lock()
	l.addSubResult(&p, 11, owner.Hash(), owner, s1)
	l.addSubResult(&p, 11, owner.Hash(), owner, s2)
	l.addRight(&p, 11, owner.Hash(), mkWME(7)) // a plain wme entry: not a sub
	l.lock.Unlock()
	subs := m.dumpRightSubs(11)
	if len(subs) != 2 {
		t.Fatalf("DumpRightSubs = %d, want 2", len(subs))
	}
	if m.dumpRightSubs(12) != nil {
		t.Fatalf("wrong node returned subs")
	}
	left, right := m.Entries()
	if left != 0 || right != 3 {
		t.Fatalf("Entries = %d,%d", left, right)
	}
}

func TestHarvestAndLockStats(t *testing.T) {
	var p Proc
	m := newMem(16)
	l := m.line(1, 1)
	l.lock.Lock()
	l.eachLeft(&p, 1, 1, func(*lEntry) {})
	l.eachLeft(&p, 1, 1, func(*lEntry) {})
	l.eachRight(&p, 1, 1, func(*rEntry) {})
	l.lock.Unlock()
	counts := m.HarvestAccessCounts()
	if len(counts) != 1 || counts[0] != 2 {
		t.Fatalf("HarvestAccessCounts = %v", counts)
	}
	// Harvest resets.
	if got := m.HarvestAccessCounts(); got != nil {
		t.Fatalf("second harvest nonempty: %v", got)
	}
	if _, acq := m.LockStats(); acq == 0 {
		t.Fatalf("no lock acquisitions recorded")
	}
}

func TestNetworkProductionsOrder(t *testing.T) {
	e := newTestEnv(t, `
(literalize c v)
(p first (c ^v 1) --> (make o))
(p second (c ^v 2) --> (make o))
`)
	ps := e.nw.Productions()
	if len(ps) != 2 || ps[0].Name != "first" || ps[1].Name != "second" {
		t.Fatalf("Productions order wrong: %v", ps)
	}
}

func TestTaskAndNodeStrings(t *testing.T) {
	e := newTestEnv(t, `(literalize c v)
(p p1 (c ^v 1) --> (make o))`)
	var join *BetaNode
	e.nw.walkBeta(func(n *BetaNode) {
		if n.Kind == KindJoin {
			join = n
		}
	})
	if join == nil {
		t.Fatalf("no join found")
	}
	tk := &Task{Node: join, Dir: DirRight, Op: wme.Add, W: mkWME(1)}
	if tk.String() == "" || join.String() == "" {
		t.Fatalf("String methods empty")
	}
	if dirLeft.String() != "left" || DirRight.String() != "right" {
		t.Fatalf("Dir strings wrong")
	}
	var nilNode *BetaNode
	if nilNode.String() != "<top>" {
		t.Fatalf("nil node string")
	}
}

// NumLines returns the number of lines.
func (m *Mem) NumLines() int { return len(m.lines) }

// TestRemoveBeforeAdd runs, through a serial scheduler, a Remove activation
// before its Add at each node kind a removal passes by naming its token —
// the stored parent plus the (CE, wme) it extends — as a remove cascade
// sends it. Each Remove must leave exactly one tombstone holding the
// materialized token, its Add must annihilate it, neither may emit, and the
// conflict set and memories must read as before the pair.
func TestRemoveBeforeAdd(t *testing.T) {
	const src = `
(literalize a k)
(literalize b k)
(literalize c k m)
(p j (a ^k <k>) (b ^k <k>) (c ^k <k>) --> (make o))
(p n (a ^k <k>) (b ^k <k>) -(c ^k <k>) --> (make o))
(p ncc (a ^k <k>) (b ^k <k>) -{ (c ^k <k> ^m <m>) (c ^k <m>) } --> (make o))
(p pp (a ^k <k>) (b ^k <k>) --> (make o))
`
	for _, c := range []struct {
		name string
		kind BetaKind
		node func(*Network) *BetaNode
	}{
		{"join", KindJoin, func(nw *Network) *BetaNode { return nw.Lookup("j").PNode.parent }},
		{"not", KindNot, func(nw *Network) *BetaNode { return nw.Lookup("n").PNode.parent }},
		{"ncc", KindNCC, func(nw *Network) *BetaNode { return nw.Lookup("ncc").PNode.parent }},
		{"ncc-partner", KindNCCPartner, func(nw *Network) *BetaNode { return nw.Lookup("ncc").PNode.parent.partner }},
		{"p", KindP, func(nw *Network) *BetaNode { return nw.Lookup("pp").PNode }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newTestEnv(t, src)
			n := c.node(e.nw)
			if n.Kind != c.kind {
				t.Fatalf("node %v is a %v, want a %v", n, n.Kind, c.kind)
			}
			// Live matches elsewhere, so an unchanged conflict set is not
			// merely an empty one.
			e.add(e.wmeOf("a", "k", "y"))
			e.add(e.wmeOf("b", "k", "y"))
			cs := e.cs.keys()
			left, right := e.nw.Mem.Entries()
			stats := func() int64 { return e.nw.Stats.TokensEmitted.Load() + e.nw.Stats.NullSuppressed.Load() }
			emitted := stats()

			// The token n's input carries, built from wmes that never reach
			// working memory: its parent is materialized, its last
			// extension only named.
			var exts []*BetaNode // the joins above n, innermost last
			for p := n.parent; p != nil; p = p.parent {
				exts = append([]*BetaNode{p}, exts...)
			}
			kvs := [][]any{{"a", "k", "x"}, {"b", "k", "x"}, {"c", "k", "x", "m", "z"}, {"c", "k", "z"}}
			mk := func(i int) *wme.WME { return e.wmeOf(kvs[i][0].(string), kvs[i][1:]...) }
			parent := DummyTop
			for i, p := range exts[:len(exts)-1] {
				parent = Extend(parent, p.rightCE, mk(i))
			}
			last := exts[len(exts)-1]
			w := mk(len(exts) - 1)

			e.s.Push(&Task{Node: n, Dir: dirLeft, Op: wme.Remove, tok: parent, W: w, ce: int16(last.rightCE)})
			if ran := drain(e.nw, e.s); ran != 1 {
				t.Fatalf("the remove ran %d tasks, want 1: it emitted", ran)
			}
			var tombs []*Token
			for i := range e.nw.Mem.lines {
				l := &e.nw.Mem.lines[i]
				for _, le := range l.left {
					if le.tomb {
						tombs = append(tombs, le.tok)
					}
				}
				for _, re := range l.right {
					if re.tomb {
						tombs = append(tombs, re.sub)
					}
				}
			}
			if len(tombs) != 1 {
				t.Fatalf("%d tombstones after the remove, want 1", len(tombs))
			}
			if tok := tombs[0]; tok == parent || tok.parent != parent || tok.w != w || int(tok.ce) != last.rightCE {
				t.Fatalf("the tombstone holds %v, want the materialized extension of %v by w%d", tok, parent, w.ID)
			}

			e.s.Push(&Task{Node: n, Dir: dirLeft, Op: wme.Add, tok: Extend(parent, last.rightCE, w)})
			if ran := drain(e.nw, e.s); ran != 1 {
				t.Fatalf("the add ran %d tasks, want 1: it emitted", ran)
			}
			if got := stats(); got != emitted {
				t.Fatalf("the pair emitted or suppressed %d tokens, want 0", got-emitted)
			}
			if n := e.nw.Mem.Tombstones(); n != 0 {
				t.Fatalf("%d tombstones after the add", n)
			}
			if l, r := e.nw.Mem.Entries(); l != left || r != right {
				t.Fatalf("memories hold (%d, %d) entries, want (%d, %d) as before the pair", l, r, left, right)
			}
			if got := e.cs.keys(); fmt.Sprint(got) != fmt.Sprint(cs) {
				t.Fatalf("conflict set %v, want %v as before the pair", got, cs)
			}
			auditClean(t, e)
		})
	}
}

// TestQuiescentDumpsTakeNoLineLock: the whole-table reads and the purge of
// the state update and of excise run at quiescence and take no line lock,
// so the tables' lock acquires do not move across a SeedUpdateTasks, a
// dumpRightSubs or a RemoveProduction — and each of them found state to
// read.
func TestQuiescentDumpsTakeNoLineLock(t *testing.T) {
	e := newTestEnv(t, blueBlock+`
(literalize g s)
(literalize d in st)
(p pn (g ^s <s>) -{ (d ^in <s> ^st closed) } --> (make o))
`)
	for _, w := range []*wme.WME{
		e.wmeOf("block", "name", "b1", "color", "blue"),
		e.wmeOf("hand", "state", "free"),
		e.wmeOf("g", "s", "s1"),
		e.wmeOf("g", "s", "s2"),
		e.wmeOf("d", "in", "s1", "st", "closed"),
	} {
		e.add(w)
	}
	acquires := func() uint64 {
		_, a := e.nw.Mem.LockStats()
		return a
	}
	still := func(what string, before uint64) {
		t.Helper()
		if after := acquires(); after != before {
			t.Errorf("%s took %d line locks", what, after-before)
		}
	}

	// Two additions whose boundaries read a join's memory without
	// equality tests (dumpLeftAt) and a P node's (dumpLeft).
	for _, src := range []string{`
(p chunk-1 (block ^name <b> ^color blue) -(block ^on <b>) (hand ^state <> free) --> (make waitfor ^obj <b>))`, `
(p chunk-2 (g ^s <s>) -{ (d ^in <s> ^st closed) } (block ^name <s>) --> (make o2))`} {
		p, err := ops5.ParseProduction(src, e.tab)
		if err != nil {
			t.Fatal(err)
		}
		_, info, err := e.nw.AddProduction(p)
		if err != nil {
			t.Fatal(err)
		}
		before := acquires()
		seeds := e.nw.SeedUpdateTasks(info)
		still("SeedUpdateTasks of "+p.Name, before)
		if len(seeds) == 0 {
			t.Fatalf("%s: no seeds, so no dump was read", p.Name)
		}
		e.update(info)
	}

	// The NCC's partner results, as a boundary under a partner reads them.
	ncc := e.nw.Lookup("pn").PNode.parent
	if ncc.Kind != KindNCC {
		t.Fatalf("pn's P node hangs under a %v node, want an NCC", ncc.Kind)
	}
	before := acquires()
	subs := e.nw.Mem.dumpRightSubs(ncc.ID)
	still("dumpRightSubs", before)
	if len(subs) == 0 {
		t.Fatalf("the NCC holds no partner results")
	}

	pn := func() (n int) {
		for _, k := range e.cs.keys() {
			if strings.HasPrefix(k, "pn[") {
				n++
			}
		}
		return n
	}
	if pn() == 0 {
		t.Fatalf("pn has no instantiation for the excise to retract")
	}
	before = acquires()
	if err := e.nw.RemoveProduction("pn"); err != nil {
		t.Fatal(err)
	}
	still("RemoveProduction", before)
	if n := pn(); n != 0 {
		t.Fatalf("%d instantiations of pn survive its excise", n)
	}
}

// netStats reads every NetStats counter.
func netStats(nw *Network) [8]int64 {
	s := &nw.Stats
	return [8]int64{s.ConstTests.Load(), s.Activations.Load(), s.Comparisons.Load(), s.TokensEmitted.Load(),
		s.NullActs.Load(), s.NullSuppressed.Load(), s.AlphaHits.Load(), s.AlphaMisses.Load()}
}

// TestLoneProcessTakesNoLineLock pins the emitter's lock: a process whose
// Proc is Alone — the lead of a cycle no helper has joined — never touches
// a line's lock, yet Mem.LockStats, Tallies and every NetStats field read
// exactly what the same activations read with every line locked, and the
// conflict set is the same. The program has a join, a negated condition,
// an NCC and its partner, so every body's lock is taken (or skipped).
func TestLoneProcessTakesNoLineLock(t *testing.T) {
	const src = blueBlock + `
(literalize g s)
(literalize d in st)
(p pn (g ^s <s>) -{ (d ^in <s> ^st closed) } --> (make o))
`
	locked, alone := newTestEnv(t, src), newTestEnv(t, src)
	alone.s.proc.Alone = true
	for _, e := range []*testEnv{locked, alone} {
		ws := []*wme.WME{
			e.wmeOf("block", "name", "b1", "color", "blue"),
			e.wmeOf("block", "name", "b2", "color", "blue"),
			e.wmeOf("hand", "state", "free"),
			e.wmeOf("block", "name", "b3", "on", "b1"),
			e.wmeOf("g", "s", "s1"),
			e.wmeOf("g", "s", "s2"),
			e.wmeOf("d", "in", "s1", "st", "closed"),
		}
		for _, w := range ws {
			e.add(w)
		}
		for _, w := range ws[3:] {
			e.remove(w)
		}
	}
	for i := range alone.nw.Mem.lines {
		if s, a := alone.nw.Mem.lines[i].lock.Stats(); s != 0 || a != 0 {
			t.Fatalf("a lone process took line %d's lock: %d spins, %d acquires", i, s, a)
		}
	}
	s0, a0 := locked.nw.Mem.LockStats()
	s1, a1 := alone.nw.Mem.LockStats()
	if a0 == 0 || s0 != 0 || s1 != 0 || a1 != a0 {
		t.Fatalf("LockStats: locked (%d spins, %d acquires), alone (%d, %d); want equal acquires and no spins", s0, a0, s1, a1)
	}
	l0, left0, right0 := locked.nw.Mem.Tallies()
	l1, left1, right1 := alone.nw.Mem.Tallies()
	if l0 != l1 || left0 != left1 || right0 != right1 || left0 == 0 || right0 == 0 {
		t.Fatalf("Tallies: locked %+v %d/%d, alone %+v %d/%d", l0, left0, right0, l1, left1, right1)
	}
	if got, want := netStats(alone.nw), netStats(locked.nw); got != want {
		t.Fatalf("NetStats alone %v, locked %v", got, want)
	}
	if got, want := alone.cs.keys(), locked.cs.keys(); fmt.Sprint(got) != fmt.Sprint(want) || len(want) == 0 {
		t.Fatalf("conflict set alone %v, locked %v", got, want)
	}
}
