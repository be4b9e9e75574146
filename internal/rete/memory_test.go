package rete

import (
	"testing"

	"soarpsme/internal/wme"
)

func TestMemLineBasics(t *testing.T) {
	m := newMem(100) // rounds up to 128
	if m.NumLines() != 128 {
		t.Fatalf("NumLines = %d, want 128", m.NumLines())
	}
	tok := Extend(DummyTop, 0, mkWME(1))
	l := m.line(7, 99)
	l.lock.Lock()
	if l.addLeft(7, 99, tok, 2) {
		t.Fatalf("addLeft annihilated")
	}
	if e := l.findLeft(7, 99, tok); e == nil || e.tok != tok || e.count != 2 {
		t.Fatalf("entry accessors wrong")
	}
	l.addRight(7, 99, mkWME(2))
	l.addRight(7, 99, mkWME(3))
	countRight := func(node NodeID) (n int) {
		l.eachRight(node, 99, func(*rEntry) { n++ })
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
	m := newMem(16)
	tok := Extend(DummyTop, 0, mkWME(1))
	l := m.line(3, 5)
	l.lock.Lock()
	// Delete before add: tombstone.
	if _, found := l.removeLeft(3, 5, tok); found {
		t.Fatalf("remove of absent token found something")
	}
	// The add annihilates against the tombstone.
	if !l.addLeft(3, 5, Extend(DummyTop, 0, mkWME(1)), 0) {
		t.Fatalf("add not annihilated by tombstone")
	}
	l.lock.Unlock()
	if n := m.Tombstones(); n != 0 {
		t.Fatalf("tombstones left: %d", n)
	}

	// Same for the right side and sub-results.
	w := mkWME(9)
	l.lock.Lock()
	if l.removeRight(3, 5, w) {
		t.Fatalf("removeRight found absent wme")
	}
	if !l.addRight(3, 5, w) {
		t.Fatalf("addRight not annihilated")
	}
	owner := Extend(DummyTop, 0, mkWME(4))
	sub := Extend(owner, 1, mkWME(5))
	if l.removeSubResult(3, 5, owner, sub) {
		t.Fatalf("removeSubResult found absent entry")
	}
	if !l.addSubResult(3, 5, owner, sub) {
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
	m := newMem(16)
	l := m.line(1, 1)
	toks := make([]*Token, 5)
	for i := range toks {
		toks[i] = Extend(DummyTop, 0, mkWME(uint64(i+1)))
	}
	scan := func() (got []*Token) {
		l.eachLeft(1, 1, func(e *lEntry) { got = append(got, e.tok) })
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
	l.addLeft(1, 1, toks[0], 0)
	l.addLeft(1, 1, toks[1], 0)
	// A remove that overtakes its add leaves a tombstone among the entries.
	if _, found := l.removeLeft(1, 1, toks[4]); found {
		t.Fatalf("removeLeft found an absent token")
	}
	l.addLeft(1, 1, toks[2], 0)
	l.addLeft(1, 1, toks[3], 0)
	want(3, 2, 1, 0)
	if _, found := l.removeLeft(1, 1, toks[1]); !found {
		t.Fatalf("removeLeft missed a stored token")
	}
	want(3, 2, 0)
	if !l.addLeft(1, 1, toks[4], 0) {
		t.Fatalf("add not annihilated by its tombstone")
	}
	want(3, 2, 0)
	if len(l.left) != 3 {
		t.Fatalf("the line holds %d entries after the annihilation, want 3", len(l.left))
	}
}

func TestDumpRightSubsAndEntries(t *testing.T) {
	m := newMem(16)
	owner := Extend(DummyTop, 0, mkWME(1))
	s1 := Extend(owner, 1, mkWME(2))
	s2 := Extend(owner, 1, mkWME(3))
	l := m.line(11, owner.Hash())
	l.lock.Lock()
	l.addSubResult(11, owner.Hash(), owner, s1)
	l.addSubResult(11, owner.Hash(), owner, s2)
	l.addRight(11, owner.Hash(), mkWME(7)) // a plain wme entry: not a sub
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
	m := newMem(16)
	l := m.line(1, 1)
	l.lock.Lock()
	l.eachLeft(1, 1, func(*lEntry) {})
	l.eachLeft(1, 1, func(*lEntry) {})
	l.eachRight(1, 1, func(*rEntry) {})
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
