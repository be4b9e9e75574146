package rete

import (
	"fmt"
	"sync"
	"testing"

	"soarpsme/internal/ops5"
)

// unlinkSrc exercises join, not and NCC nodes; several productions share
// a prefix so excision leaves survivors whose counters must stay exact.
const unlinkSrc = `
(literalize g s)
(literalize d in st)
(literalize e of)
(p pj (g ^s <s>) (d ^in <s>) --> (make o))
(p pn (g ^s <s>) -(e ^of <s>) --> (make o2))
(p pncc (g ^s <s>) -{ (d ^in <s> ^st closed) (e ^of <s>) } --> (make o3))
`

func auditClean(t *testing.T, e *testEnv) {
	t.Helper()
	if errs := e.nw.Audit(e.mem); len(errs) > 0 {
		t.Fatalf("audit: %v", errs)
	}
}

// TestUnlinkMatchesBaseline runs the same wme sequence with the filter on
// and off: the conflict sets must be identical, audits clean both ways, and
// the filter must actually suppress work when on.
func TestUnlinkMatchesBaseline(t *testing.T) {
	type result struct {
		cs         []string
		suppressed int64
		tasks      int
	}
	runOne := func(unlink bool) result {
		opts := DefaultOptions()
		opts.Unlink = unlink
		e := newEnvOpts(t, unlinkSrc, opts)
		g1 := e.wmeOf("g", "s", "s1")
		g2 := e.wmeOf("g", "s", "s2")
		d1 := e.wmeOf("d", "in", "s1", "st", "closed")
		e1 := e.wmeOf("e", "of", "s1")
		e.add(g1)
		e.add(g2)
		e.add(d1)
		e.add(e1)
		e.remove(e1)
		e.remove(g2)
		auditClean(t, e)
		return result{cs: e.cs.keys(), suppressed: e.nw.Stats.NullSuppressed.Load(),
			tasks: int(e.nw.Stats.Activations.Load())}
	}
	off := runOne(false)
	on := runOne(true)
	if fmt.Sprint(off.cs) != fmt.Sprint(on.cs) {
		t.Fatalf("conflict sets diverge:\n off %v\n on  %v", off.cs, on.cs)
	}
	if off.suppressed != 0 {
		t.Fatalf("unlink=off suppressed %d", off.suppressed)
	}
	if on.suppressed == 0 {
		t.Fatalf("unlink=on suppressed nothing")
	}
	if on.tasks >= off.tasks {
		t.Fatalf("unlink=on executed %d tasks, off executed %d — filter saved nothing", on.tasks, off.tasks)
	}
}

// TestUnlinkCountersAcrossExcise verifies that excising a production purges
// its nodes' unlink counters (the audit cross-checks counters against live
// entries, including zero for excised IDs) and that matching — and
// suppression — continue correctly on the survivors.
func TestUnlinkCountersAcrossExcise(t *testing.T) {
	e := newEnvOpts(t, unlinkSrc, DefaultOptions())
	g1 := e.wmeOf("g", "s", "s1")
	d1 := e.wmeOf("d", "in", "s1", "st", "closed")
	e1 := e.wmeOf("e", "of", "s1")
	e.add(g1)
	e.add(d1)
	e.add(e1)
	auditClean(t, e)
	if err := e.nw.RemoveProduction("pncc"); err != nil {
		t.Fatal(err)
	}
	auditClean(t, e)
	if err := e.nw.RemoveProduction("pn"); err != nil {
		t.Fatal(err)
	}
	auditClean(t, e)
	// The survivor (pj) still matches incrementally...
	e.wantCS(fmt.Sprintf("pj[%d %d]", g1.ID, d1.ID))
	// ...and once its join's right memory drains, left activations through
	// the shared (partially excised) network are suppressed again.
	e.remove(d1)
	e.wantCS()
	before := e.nw.Stats.NullSuppressed.Load()
	g2 := e.wmeOf("g", "s", "s2")
	e.add(g2)
	auditClean(t, e)
	if e.nw.Stats.NullSuppressed.Load() == before {
		t.Fatalf("no suppression after excise")
	}
	// Draining working memory must return every counter to zero (the audit
	// recount enforces it).
	e.remove(g1)
	e.remove(g2)
	e.remove(e1)
	auditClean(t, e)
}

// TestUnlinkCountersRuntimeAdd re-adds an excised production with the §5.2
// update algorithm under unlinking: the new nodes start with empty (fully
// unlinked) memories, the update replay fills them, and the audit proves
// the counters tracked every insert.
func TestUnlinkCountersRuntimeAdd(t *testing.T) {
	e := newEnvOpts(t, `
(literalize c v)
(p p1 (c ^v 1) (c ^v 2) --> (make o))
`, DefaultOptions())
	w1 := e.wmeOf("c", "v", 1)
	w2 := e.wmeOf("c", "v", 2)
	e.add(w1)
	e.add(w2)
	e.wantCS(fmt.Sprintf("p1[%d %d]", w1.ID, w2.ID))
	if err := e.nw.RemoveProduction("p1"); err != nil {
		t.Fatal(err)
	}
	e.wantCS()
	auditClean(t, e)
	ast, err := ops5.ParseProduction(`(p p1 (c ^v 1) (c ^v 2) --> (make o))`, e.tab)
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := e.nw.AddProduction(ast)
	if err != nil {
		t.Fatal(err)
	}
	e.update(info)
	e.wantCS(fmt.Sprintf("p1[%d %d]", w1.ID, w2.ID))
	auditClean(t, e)
	// And the relinked production keeps matching incrementally.
	e.remove(w2)
	e.wantCS()
	auditClean(t, e)
}

// TestHarvestAccessCountsRace is the regression test for the harvest data
// race: HarvestAccessCounts used to read and reset each line's access
// counter without taking the line lock, racing with the increments match
// workers perform under it. Run with -race.
func TestHarvestAccessCountsRace(t *testing.T) {
	const iters = 2000
	m := newMem(16)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tok := Extend(DummyTop, 0, mkWME(uint64(100+id)))
			var p Proc
			for j := 0; j < iters; j++ {
				key := uint64(j % 64)
				l := m.line(NodeID(id+1), key)
				l.lock.Lock()
				l.addLeft(&p, NodeID(id+1), key, tok, 0)
				l.eachLeft(&p, NodeID(id+1), key, func(*lEntry) {})
				l.removeLeft(&p, NodeID(id+1), key, ref{tok: tok})
				l.lock.Unlock()
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	total := 0
harvesting:
	for {
		select {
		case <-done:
			break harvesting
		default:
			for _, c := range m.HarvestAccessCounts() {
				total += c
			}
		}
	}
	for _, c := range m.HarvestAccessCounts() {
		total += c
	}
	// Every addLeft/eachLeft/removeLeft touches the left access counter once.
	if want := 4 * iters * 3; total != want {
		t.Fatalf("harvested %d accesses, want %d", total, want)
	}
}
