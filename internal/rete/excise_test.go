package rete

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"soarpsme/internal/ops5"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

func TestExciseRetractsAndDetaches(t *testing.T) {
	e := newTestEnv(t, `
(literalize a x)
(literalize b x)
(p p1 (a ^x <v>) (b ^x <v>) --> (make o1))
(p p2 (a ^x <v>) (b ^x <> <v>) --> (make o2))
`)
	a1 := e.wmeOf("a", "x", "k")
	b1 := e.wmeOf("b", "x", "k")
	b2 := e.wmeOf("b", "x", "j")
	for _, w := range []*wme.WME{a1, b1, b2} {
		e.add(w)
	}
	e.wantCS(
		fmt.Sprintf("p1[%d %d]", a1.ID, b1.ID),
		fmt.Sprintf("p2[%d %d]", a1.ID, b2.ID),
	)
	before := e.nw.TwoInputNodes()
	if err := e.nw.RemoveProduction("p1"); err != nil {
		t.Fatal(err)
	}
	// p1's instantiation retracted; p2 untouched.
	e.wantCS(fmt.Sprintf("p2[%d %d]", a1.ID, b2.ID))
	if got := e.nw.TwoInputNodes(); got != before-1 {
		t.Fatalf("two-input nodes %d -> %d, want -1 (second join unshared)", before, got)
	}
	if e.nw.Lookup("p1") != nil {
		t.Fatalf("p1 still registered")
	}
	// Shared prefix (the first join) still works for p2: new wmes match.
	a2 := e.wmeOf("a", "x", "z")
	e.add(a2)
	e.wantCS(
		fmt.Sprintf("p2[%d %d]", a1.ID, b2.ID),
		fmt.Sprintf("p2[%d %d]", a2.ID, b1.ID),
		fmt.Sprintf("p2[%d %d]", a2.ID, b2.ID),
	)
	if err := e.nw.RemoveProduction("p1"); err == nil {
		t.Fatalf("double excise accepted")
	}
}

func TestExciseNCCProduction(t *testing.T) {
	e := newTestEnv(t, `
(literalize g s)
(literalize d in st)
(p pn (g ^s <s>) -{ (d ^in <s> ^st closed) } --> (make o))
(p pk (g ^s <s>) --> (make o2))
`)
	g := e.wmeOf("g", "s", "s1")
	e.add(g)
	e.wantCS(fmt.Sprintf("pn[%d]", g.ID), fmt.Sprintf("pk[%d]", g.ID))
	if err := e.nw.RemoveProduction("pn"); err != nil {
		t.Fatal(err)
	}
	e.wantCS(fmt.Sprintf("pk[%d]", g.ID))
	// Matching continues cleanly after excising the NCC structure.
	d := e.wmeOf("d", "in", "s1", "st", "closed")
	e.add(d)
	e.remove(g)
	e.wantCS()
}

func TestExciseThenReAdd(t *testing.T) {
	e := newTestEnv(t, `
(literalize c v)
(p p1 (c ^v 1) --> (make o))
`)
	w1 := e.wmeOf("c", "v", 1)
	e.add(w1)
	e.wantCS(fmt.Sprintf("p1[%d]", w1.ID))
	if err := e.nw.RemoveProduction("p1"); err != nil {
		t.Fatal(err)
	}
	e.wantCS()
	// Re-add at run time with the update algorithm: instantiation returns.
	ast, err := ops5.ParseProduction(`(p p1 (c ^v 1) --> (make o))`, e.tab)
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := e.nw.AddProduction(ast)
	if err != nil {
		t.Fatal(err)
	}
	e.update(info)
	e.wantCS(fmt.Sprintf("p1[%d]", w1.ID))
}

func TestExciseRandomizedAgainstNaive(t *testing.T) {
	// Build k productions, run wmes, excise a random subset, continue
	// mutating WM; the CS must always equal the naive match over the
	// remaining productions.
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 500))
		src := randProgram(rng, 4)
		tab := value.NewTable()
		reg := wme.NewRegistry()
		cs := newCS()
		nw := NewNetwork(tab, reg, cs, DefaultOptions())
		prog, err := ops5.Parse(src, tab)
		if err != nil {
			t.Fatal(err)
		}
		for _, lit := range prog.Literalize {
			reg.Declare(lit.Class, lit.Attrs...)
		}
		for _, p := range prog.Productions {
			if _, _, err := nw.AddProduction(p); err != nil {
				t.Fatal(err)
			}
		}
		mem := wme.NewMemory()
		sched := &serialSched{}
		inject := func(d wme.Delta) {
			nw.Inject(d, func(n *BetaNode, w *wme.WME, op wme.Op) {
				sched.Push(&Task{Node: n, Dir: DirRight, Op: op, W: w})
			})
			drain(nw, sched)
		}
		var live []*wme.WME
		consts := []value.Value{tab.SymV("k1"), tab.SymV("k2"), tab.SymV("k3")}
		classes := []value.Sym{tab.Intern("ca"), tab.Intern("cb"), tab.Intern("cc")}
		addRandom := func() {
			fields := make([]value.Value, 3)
			for j := range fields {
				if rng.Intn(4) != 0 {
					fields[j] = consts[rng.Intn(3)]
				}
			}
			w := mem.Make(classes[rng.Intn(3)], fields)
			live = append(live, w)
			mem.Insert(w)
			inject(wme.Delta{Op: wme.Add, WME: w})
		}
		for i := 0; i < 10; i++ {
			addRandom()
		}
		remaining := append([]*ops5.Production{}, prog.Productions...)
		// Excise two random productions.
		for k := 0; k < 2; k++ {
			i := rng.Intn(len(remaining))
			if err := nw.RemoveProduction(remaining[i].Name); err != nil {
				t.Fatal(err)
			}
			remaining = append(remaining[:i], remaining[i+1:]...)
		}
		for i := 0; i < 6; i++ {
			addRandom()
		}
		var want []string
		for _, p := range remaining {
			want = append(want, naiveMatch(p, live, reg)...)
		}
		sort.Strings(want)
		if got := cs.keys(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: CS after excise\n rete: %v\nnaive: %v\nprogram:\n%s",
				trial, got, want, src)
		}
		if n := nw.Mem.Tombstones(); n != 0 {
			t.Fatalf("trial %d: %d tombstones", trial, n)
		}
	}
}

func TestPurgeNode(t *testing.T) {
	m := newMem(16)
	tok := Extend(DummyTop, 0, mkWME(1))
	line := m.line(5, 42)
	line.lock.Lock()
	line.addLeft(5, 42, tok, 0)
	line.addRight(5, 42, mkWME(2))
	line.lock.Unlock()
	if l, r := m.Entries(); l != 1 || r != 1 {
		t.Fatalf("setup wrong: %d %d", l, r)
	}
	m.purgeNode(5)
	if l, r := m.Entries(); l != 0 || r != 0 {
		t.Fatalf("purge incomplete: %d %d", l, r)
	}
}
