package rete

import (
	"testing"

	"soarpsme/internal/wme"
)

func TestMemLineBasics(t *testing.T) {
	m := NewMem(100) // rounds up to 128
	if m.NumLines() != 128 {
		t.Fatalf("NumLines = %d, want 128", m.NumLines())
	}
	tok := Extend(DummyTop, 0, mkWME(1))
	l := m.line(7, 99)
	l.Lock.Lock()
	e, ann := l.addLeft(7, 99, tok, 2)
	if ann || e == nil {
		t.Fatalf("addLeft failed")
	}
	if e.Token() != tok || e.Count() != 2 {
		t.Fatalf("entry accessors wrong")
	}
	l.addRight(7, 99, mkWME(2))
	l.addRight(7, 99, mkWME(3))
	if n := l.countRight(7, 99); n != 2 {
		t.Fatalf("countRight = %d", n)
	}
	if n := l.countRight(8, 99); n != 0 {
		t.Fatalf("countRight wrong node = %d", n)
	}
	l.Lock.Unlock()
}

func TestMemTombstoneAnnihilation(t *testing.T) {
	m := NewMem(16)
	tok := Extend(DummyTop, 0, mkWME(1))
	l := m.line(3, 5)
	l.Lock.Lock()
	// Delete before add: tombstone.
	if _, found := l.removeLeft(3, 5, tok); found {
		t.Fatalf("remove of absent token found something")
	}
	// The add annihilates against the tombstone.
	_, ann := l.addLeft(3, 5, Extend(DummyTop, 0, mkWME(1)), 0)
	if !ann {
		t.Fatalf("add not annihilated by tombstone")
	}
	l.Lock.Unlock()
	if n := m.Tombstones(); n != 0 {
		t.Fatalf("tombstones left: %d", n)
	}

	// Same for the right side and sub-results.
	w := mkWME(9)
	l.Lock.Lock()
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
	l.Lock.Unlock()
	if n := m.Tombstones(); n != 0 {
		t.Fatalf("tombstones left after right-side: %d", n)
	}
}

func TestDumpRightSubsAndEntries(t *testing.T) {
	m := NewMem(16)
	owner := Extend(DummyTop, 0, mkWME(1))
	s1 := Extend(owner, 1, mkWME(2))
	s2 := Extend(owner, 1, mkWME(3))
	l := m.line(11, owner.Hash())
	l.Lock.Lock()
	l.addSubResult(11, owner.Hash(), owner, s1)
	l.addSubResult(11, owner.Hash(), owner, s2)
	l.addRight(11, owner.Hash(), mkWME(7)) // a plain wme entry: not a sub
	l.Lock.Unlock()
	subs := m.DumpRightSubs(11)
	if len(subs) != 2 {
		t.Fatalf("DumpRightSubs = %d, want 2", len(subs))
	}
	if m.DumpRightSubs(12) != nil {
		t.Fatalf("wrong node returned subs")
	}
	left, right := m.Entries()
	if left != 0 || right != 3 {
		t.Fatalf("Entries = %d,%d", left, right)
	}
}

func TestHarvestAndLockStats(t *testing.T) {
	m := NewMem(16)
	l := m.line(1, 1)
	l.Lock.Lock()
	l.eachLeft(1, 1, func(*LEntry) {})
	l.eachLeft(1, 1, func(*LEntry) {})
	l.eachRight(1, 1, func(*REntry) {})
	l.Lock.Unlock()
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
	e.nw.WalkBeta(func(n *BetaNode) {
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
	if DirLeft.String() != "left" || DirRight.String() != "right" {
		t.Fatalf("Dir strings wrong")
	}
	var nilNode *BetaNode
	if nilNode.String() != "<top>" {
		t.Fatalf("nil node string")
	}
}
