package rete

import (
	"fmt"
	"strings"
	"testing"

	"soarpsme/internal/wme"
)

// auditWants asserts that at least one audit error mentions substr.
func auditWants(t *testing.T, errs []error, substr string) {
	t.Helper()
	if len(errs) == 0 {
		t.Fatalf("audit clean, want error containing %q", substr)
	}
	for _, err := range errs {
		if strings.Contains(err.Error(), substr) {
			return
		}
	}
	t.Fatalf("no audit error contains %q; got %v", substr, errs)
}

// nccEnv builds a network exercising join, not and NCC nodes with live
// match state.
func nccEnv(t *testing.T) *testEnv {
	e := newTestEnv(t, `
(literalize on state disk peg)
(literalize smaller a b)
(literalize peg id)
(p move
  (on ^state s0 ^disk <d> ^peg <p>)
  -{ (smaller ^a <d2> ^b <d>)
     (on ^state s0 ^disk <d2> ^peg <p>) }
  (peg ^id { <> <p> <q> })
  -(on ^state s0 ^disk <d> ^peg <q>)
  -->
  (make out))
`)
	for _, w := range []*wme.WME{
		e.wmeOf("smaller", "a", "d1", "b", "d2"),
		e.wmeOf("peg", "id", "p1"),
		e.wmeOf("peg", "id", "p2"),
		e.wmeOf("peg", "id", "p3"),
		e.wmeOf("on", "state", "s0", "disk", "d1", "peg", "p2"),
		e.wmeOf("on", "state", "s0", "disk", "d2", "peg", "p1"),
	} {
		e.add(w)
	}
	return e
}

func TestAuditCleanAfterActivity(t *testing.T) {
	e := nccEnv(t)
	if errs := e.nw.Audit(e.mem); len(errs) != 0 {
		t.Fatalf("audit of healthy state: %v", errs)
	}
	// Stay clean through removals too.
	all := e.mem.All()
	e.remove(all[len(all)-1])
	if errs := e.nw.Audit(e.mem); len(errs) != 0 {
		t.Fatalf("audit after removal: %v", errs)
	}
}

func TestAuditCleanBilinear(t *testing.T) {
	opts := DefaultOptions()
	opts.Organization = Bilinear
	opts.ContextCEs = 2
	opts.GroupCEs = 2
	e := newEnvOpts(t, bilinProg+bilinChunk, opts)
	for _, w := range bilinWMEs(e) {
		e.add(w)
	}
	if errs := e.nw.Audit(e.mem); len(errs) != 0 {
		t.Fatalf("audit of bilinear state: %v", errs)
	}
}

// corrupt locates the first live left entry satisfying pred and applies fn.
func corrupt(e *testEnv, pred func(*lEntry) bool, fn func(l *line, en *lEntry)) bool {
	m := e.nw.Mem
	for i := range m.lines {
		l := &m.lines[i]
		for j := len(l.left) - 1; j >= 0; j-- {
			if en := &l.left[j]; !en.tomb && pred(en) {
				fn(l, en)
				return true
			}
		}
	}
	return false
}

func TestAuditDetectsKeyCorruption(t *testing.T) {
	e := nccEnv(t)
	if !corrupt(e, func(en *lEntry) bool { return true }, func(_ *line, en *lEntry) { en.key ^= 0xdeadbeef }) {
		t.Fatalf("no left entry to corrupt")
	}
	// A flipped key puts the entry on the wrong line and breaks the key
	// recomputation; either message proves detection.
	errs := e.nw.Audit(e.mem)
	if len(errs) == 0 {
		t.Fatalf("audit missed key corruption")
	}
}

func TestAuditDetectsDeadWME(t *testing.T) {
	e := nccEnv(t)
	// Delete a wme from WM behind the network's back: right entries and
	// stored tokens now reference a dead wme, and nothing was retracted.
	all := e.mem.All()
	e.mem.Delete(all[len(all)-1])
	auditWants(t, e.nw.Audit(e.mem), "dead wme")
}

func TestAuditDetectsLostInsert(t *testing.T) {
	e := nccEnv(t)
	// Insert a wme into WM without injecting it: the forward cross-check
	// must notice the right memories never saw it.
	w := e.wmeOf("on", "state", "s0", "disk", "d9", "peg", "p1")
	if err := e.mem.Insert(w); err != nil {
		t.Fatal(err)
	}
	auditWants(t, e.nw.Audit(e.mem), "lost insert")
}

func TestAuditDetectsRefcountDrift(t *testing.T) {
	e := nccEnv(t)
	kinds := map[NodeID]BetaKind{}
	e.nw.walkBeta(func(n *BetaNode) { kinds[n.ID] = n.Kind })
	found := corrupt(e,
		func(en *lEntry) bool { return kinds[en.node] == KindNot || kinds[en.node] == KindNCC },
		func(_ *line, en *lEntry) { en.count += 3 })
	if !found {
		t.Fatalf("no not/NCC left entry found")
	}
	auditWants(t, e.nw.Audit(e.mem), "blocking count")
}

func TestAuditDetectsTombstone(t *testing.T) {
	e := nccEnv(t)
	if !corrupt(e, func(en *lEntry) bool { return true }, func(l *line, en *lEntry) {
		l.left = append(l.left, lEntry{node: en.node, key: en.key, tok: en.tok, tomb: true})
	}) {
		t.Fatalf("no left entry found")
	}
	auditWants(t, e.nw.Audit(e.mem), "tombstone")
}

func TestAuditDetectsDuplicate(t *testing.T) {
	e := nccEnv(t)
	if !corrupt(e, func(en *lEntry) bool { return true }, func(l *line, en *lEntry) {
		l.left = append(l.left, lEntry{node: en.node, key: en.key, tok: en.tok, count: en.count})
	}) {
		t.Fatalf("no left entry found")
	}
	auditWants(t, e.nw.Audit(e.mem), "duplicate")
}

func TestLivePTokensMatchesConflictSet(t *testing.T) {
	e := nccEnv(t)
	if got, want := e.nw.LivePTokens(), len(e.cs.keys()); got != want {
		t.Fatalf("LivePTokens = %d, conflict set has %d", got, want)
	}
	if e.nw.LivePTokens() == 0 {
		t.Fatalf("expected live P tokens")
	}
}

func TestResetMatchState(t *testing.T) {
	e := nccEnv(t)
	if l, r := e.nw.Mem.Entries(); l == 0 && r == 0 {
		t.Fatalf("expected match state before reset")
	}
	old := e.nw.Mem
	e.nw.ResetMatchState()
	if e.nw.Mem == old {
		t.Fatalf("ResetMatchState kept the old Mem")
	}
	if l, r := e.nw.Mem.Entries(); l != 0 || r != 0 {
		t.Fatalf("fresh Mem has %d/%d entries", l, r)
	}
	if e.nw.Mem.NumLines() != old.NumLines() {
		t.Fatalf("fresh Mem sized %d, want %d", e.nw.Mem.NumLines(), old.NumLines())
	}
	// The audit now reports every live wme as a lost insert — the state is
	// gone — and a serial replay of WM must restore a clean audit.
	if errs := e.nw.Audit(e.mem); len(errs) == 0 {
		t.Fatalf("audit clean immediately after reset with live WM")
	}
	for _, w := range e.mem.All() {
		e.inject(wme.Delta{Op: wme.Add, WME: w})
	}
	if errs := e.nw.Audit(e.mem); len(errs) != 0 {
		t.Fatalf("audit after replay: %v", errs)
	}
}

func TestAuditErrorLimit(t *testing.T) {
	e := nccEnv(t)
	// Corrupt every left entry; the audit must cap its error list.
	m := e.nw.Mem
	for i := range m.lines {
		for j := range m.lines[i].left {
			m.lines[i].left[j].key ^= 0xabcdef
		}
	}
	errs := e.nw.Audit(e.mem)
	if len(errs) == 0 || len(errs) > auditMaxErrors+1 {
		t.Fatalf("audit returned %d errors, want 1..%d", len(errs), auditMaxErrors+1)
	}
	last := errs[len(errs)-1].Error()
	_ = fmt.Sprintf("%s", last)
}
