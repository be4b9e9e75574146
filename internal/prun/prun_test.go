package prun

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"soarpsme/internal/fault"
	"soarpsme/internal/obs"
	"soarpsme/internal/ops5"
	"soarpsme/internal/rete"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// csCount is a minimal concurrency-safe conflict listener.
type csCount struct {
	mu sync.Mutex
	m  map[string]int
}

func (c *csCount) Insert(p *rete.Production, t *rete.Token) {
	c.mu.Lock()
	c.m[key(p, t)]++
	c.mu.Unlock()
}

func (c *csCount) Retract(p *rete.Production, t *rete.Token) {
	c.mu.Lock()
	c.m[key(p, t)]--
	if c.m[key(p, t)] == 0 {
		delete(c.m, key(p, t))
	}
	c.mu.Unlock()
}

func key(p *rete.Production, t *rete.Token) string {
	ids := []uint64{}
	for _, w := range t.WMEs() {
		ids = append(ids, w.ID)
	}
	return fmt.Sprintf("%s%v", p.Name, ids)
}

func (c *csCount) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for k, n := range c.m {
		out = append(out, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(out)
	return out
}

// buildNet compiles a fan-out heavy program: many independent pairs match
// in one cycle, giving the runtime real parallel work.
func buildNet(t *testing.T) (*rete.Network, *csCount, []*wme.WME) {
	t.Helper()
	return buildNetOpts(t, rete.DefaultOptions())
}

func buildNetOpts(t *testing.T, opts rete.Options) (*rete.Network, *csCount, []*wme.WME) {
	t.Helper()
	tab := value.NewTable()
	reg := wme.NewRegistry()
	cs := &csCount{m: map[string]int{}}
	nw := rete.NewNetwork(tab, reg, cs, opts)
	src := `
(p pair (a ^k <k>) (b ^k <k>) --> (make o))
(p triple (a ^k <k>) (b ^k <k>) (c ^k <k>) --> (make o2))
(p nopair (a ^k <k>) -(b ^k <k>) --> (make o3))
`
	prog, err := ops5.Parse(src, tab)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prog.Productions {
		if _, _, err := nw.AddProduction(p); err != nil {
			t.Fatal(err)
		}
	}
	mem := wme.NewMemory()
	var ws []*wme.WME
	mk := func(class string, k int) *wme.WME { return makeK(nw, mem, class, k) }
	for k := 0; k < 40; k++ {
		ws = append(ws, mk("a", k))
		if k%2 == 0 {
			ws = append(ws, mk("b", k))
		}
		if k%4 == 0 {
			ws = append(ws, mk("c", k))
		}
	}
	return nw, cs, ws
}

// makeK makes a wme of the given class whose ^k field is k.
func makeK(nw *rete.Network, mem *wme.Memory, class string, k int) *wme.WME {
	cls := nw.Tab.Intern(class)
	idx, _ := nw.Reg.FieldIndex(cls, nw.Tab.Intern("k"), true)
	fields := make([]value.Value, idx+1)
	fields[idx] = value.IntVal(int64(k))
	return mem.Make(cls, fields)
}

func deltas(ws []*wme.WME) []wme.Delta {
	out := make([]wme.Delta, len(ws))
	for i, w := range ws {
		out[i] = wme.Delta{Op: wme.Add, WME: w}
	}
	return out
}

func TestRunCycleSequential(t *testing.T) {
	nw, cs, ws := buildNet(t)
	rt := New(nw, Config{Processes: 1})
	st := rt.RunCycle(deltas(ws))
	if st.Tasks == 0 {
		t.Fatalf("no tasks executed")
	}
	if st.TotalCost == 0 {
		t.Fatalf("no cost accumulated")
	}
	// 20 pairs, 10 triples, 20 nopairs.
	if got := len(cs.keys()); got != 50 {
		t.Fatalf("instantiations = %d, want 50", got)
	}
	if n := nw.Mem.Tombstones(); n != 0 {
		t.Fatalf("tombstones = %d", n)
	}
}

func TestParallelEquivalenceAcrossConfigs(t *testing.T) {
	ref := func() []string {
		nw, cs, ws := buildNet(t)
		rt := New(nw, Config{Processes: 1})
		rt.RunCycle(deltas(ws))
		return cs.keys()
	}()
	for _, procs := range []int{2, 3, 5, 8, 13} {
		for _, pol := range allPolicies {
			nw, cs, ws := buildNet(t)
			rt := New(nw, Config{Processes: procs, Policy: pol})
			rt.RunCycle(deltas(ws))
			if got := cs.keys(); fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Fatalf("procs=%d %v diverged:\n got %v\nwant %v", procs, pol, got, ref)
			}
			if n := nw.Mem.Tombstones(); n != 0 {
				t.Fatalf("procs=%d %v: tombstones = %d", procs, pol, n)
			}
		}
	}
}

func TestAddRemoveCancel(t *testing.T) {
	// Adding then removing the same wmes across cycles leaves everything
	// empty, under all configurations.
	for _, procs := range []int{1, 4, 8} {
		nw, cs, ws := buildNet(t)
		rt := New(nw, Config{Processes: procs, Policy: MultiQueue})
		rt.RunCycle(deltas(ws))
		var dels []wme.Delta
		for _, w := range ws {
			dels = append(dels, wme.Delta{Op: wme.Remove, WME: w})
		}
		rt.RunCycle(dels)
		if got := cs.keys(); len(got) != 0 {
			t.Fatalf("procs=%d: CS not empty: %v", procs, got)
		}
		if l, r := nw.Mem.Entries(); l != 0 || r != 0 {
			t.Fatalf("procs=%d: memories not empty: %d,%d", procs, l, r)
		}
	}
}

func TestMixedAddRemoveSameCycle(t *testing.T) {
	// A single cycle containing both adds and removes (OPS5 modify) stays
	// consistent under parallel execution — the conjugate-pair stress.
	for trial := 0; trial < 10; trial++ {
		nw, cs, ws := buildNet(t)
		rt := New(nw, Config{Processes: 8, Policy: MultiQueue})
		rt.RunCycle(deltas(ws))
		before := cs.keys()
		// Remove all b wmes and re-add equivalents in one cycle: final CS
		// must be isomorphic (same counts per production).
		var batch []wme.Delta
		for _, w := range ws {
			if w.Class == 2 { // class "b" interned second
				batch = append(batch, wme.Delta{Op: wme.Remove, WME: w})
				clone := &wme.WME{ID: w.ID + 10000, TimeTag: w.TimeTag + 10000, Class: w.Class, Fields: w.Fields}
				batch = append(batch, wme.Delta{Op: wme.Add, WME: clone})
			}
		}
		rt.RunCycle(batch)
		if n := nw.Mem.Tombstones(); n != 0 {
			t.Fatalf("trial %d: tombstones = %d", trial, n)
		}
		if len(cs.keys()) != len(before) {
			t.Fatalf("trial %d: CS size changed: %d -> %d", trial, len(before), len(cs.keys()))
		}
	}
}

func TestTraceCapture(t *testing.T) {
	nw, _, ws := buildNet(t)
	rt := New(nw, Config{Processes: 1, CaptureTrace: true})
	st := rt.RunCycle(deltas(ws))
	if len(st.Trace) != st.Tasks {
		t.Fatalf("trace len %d != tasks %d", len(st.Trace), st.Tasks)
	}
	seqs := map[int64]bool{}
	for _, r := range st.Trace {
		if r.Cost <= 0 {
			t.Fatalf("task with nonpositive cost")
		}
		seqs[r.Seq] = true
	}
	if len(seqs) != st.Tasks {
		t.Fatalf("duplicate seqs in trace")
	}
	// Parents either 0 (injected) or an executed task.
	for _, r := range st.Trace {
		if r.Parent != 0 && !seqs[r.Parent] {
			t.Fatalf("task %d has unknown parent %d", r.Seq, r.Parent)
		}
	}
}

// TestQueueLockStats: the multi-queue locks count their acquisitions, and
// the lock-free deques have none to count.
func TestQueueLockStats(t *testing.T) {
	for _, pol := range allPolicies {
		nw, _, ws := buildNet(t)
		rt := New(nw, Config{Processes: 4, Policy: pol})
		rt.RunCycle(deltas(ws))
		if _, acq := rt.QueueLockStats(); (acq == 0) != (pol == WorkStealing) {
			t.Fatalf("%v: %d queue lock acquisitions recorded", pol, acq)
		}
	}
}

func TestPolicyString(t *testing.T) {
	var zero Policy
	if zero != MultiQueue || MultiQueue.String() != "multi-queue" || WorkStealing.String() != "work-stealing" {
		t.Fatalf("Policy.String wrong, or the zero Policy is not multi-queue")
	}
}

func TestConfigDefaults(t *testing.T) {
	nw, _, _ := buildNet(t)
	rt := New(nw, Config{})
	if rt.cfg.Processes != 1 {
		t.Fatalf("default processes = %d", rt.cfg.Processes)
	}
}

func TestRunSeededDirectly(t *testing.T) {
	// Exercise RunSeeded at the prun level: build a network, load wmes,
	// then add a production and run the seeded update cycle.
	nw, cs, ws := buildNet(t)
	rt := New(nw, Config{Processes: 2, Policy: MultiQueue, CaptureTrace: true})
	rt.RunCycle(deltas(ws))
	before := len(cs.keys())

	tab := nw.Tab
	ast, err := ops5.ParseProduction(`(p seeded (a ^k <k>) (c ^k <k>) --> (make o9))`, tab)
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := nw.AddProduction(ast)
	if err != nil {
		t.Fatal(err)
	}
	var all []*wme.WME
	for _, w := range ws {
		all = append(all, w)
	}
	st := rt.RunSeeded(info, nw.SeedUpdateTasks(info), all)
	if st.Tasks == 0 {
		t.Fatalf("seeded run executed nothing")
	}
	if len(st.Trace) != st.Tasks {
		t.Fatalf("trace incomplete")
	}
	// 10 (a,c) pairs appear.
	if got := len(cs.keys()); got != before+10 {
		t.Fatalf("CS after seeded update = %d, want %d", got, before+10)
	}
	if n := nw.Mem.Tombstones(); n != 0 {
		t.Fatalf("tombstones: %d", n)
	}
}

// TestPlainCyclePairAllocsNoControl: a runtime with neither a watchdog nor
// a fault injector reuses one cycle control, so a steady-state add/remove
// pair allocates exactly the two controls (a struct and a channel each)
// fewer than the same pair under an injector that never fires, which takes
// a fresh control every cycle, in a small cycle and a large one. One
// process, because how many tasks a helper steals, and so allocates, varies
// run to run; and no race detector, which allocates on its own account (by
// one to five per pair here).
func TestPlainCyclePairAllocsNoControl(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	nw, _, ws := buildNet(t)
	for _, n := range []int{4, len(ws)} {
		add, del := deltas(ws[:n]), removals(ws[:n])
		pair := func(rt *Runtime) float64 {
			return testing.AllocsPerRun(100, func() {
				rt.RunCycle(add)
				rt.RunCycle(del)
			})
		}
		plain := pair(New(nw, Config{Processes: 1}))
		supervised := pair(New(nw, Config{Processes: 1, Fault: fault.Plan()}))
		if supervised-plain != 4 {
			t.Fatalf("%d wmes: a plain pair allocates %v, a supervised one %v; want 4 fewer", n, plain, supervised)
		}
	}
}

// panicking is a conflict listener that panics while armed: an organic
// worker panic, with no fault injector to raise it.
type panicking struct {
	*csCount
	armed bool
}

func (p *panicking) Insert(prod *rete.Production, tok *rete.Token) {
	if p.armed {
		panic("listener fault")
	}
	p.csCount.Insert(prod, tok)
}

// TestPoisonedControlReplaced: an unsupervised runtime keeps its cycle
// control across healthy cycles, but a cycle its own process poisoned is
// never followed by one on the same control.
func TestPoisonedControlReplaced(t *testing.T) {
	nw, cs, ws := buildNet(t)
	lis := &panicking{csCount: cs}
	nw.CS = lis
	rt := New(nw, Config{Processes: 1})
	rt.RunCycle(deltas(ws[:4]))
	kept := rt.ctl
	rt.RunCycle(removals(ws[:4]))
	if rt.ctl != kept {
		t.Fatal("a healthy cycle replaced the control")
	}
	lis.armed = true
	if st := rt.RunCycle(deltas(ws[:4])); !st.Failed {
		t.Fatal("a panicking listener did not fail the cycle")
	}
	lis.armed = false
	nw.ResetMatchState()
	st := rt.RunCycle(deltas(ws[:4]))
	if st.Failed || st.Tasks == 0 || rt.ctl == kept {
		t.Fatalf("the cycle after a poisoned one: Failed=%v (%s) Tasks=%d, control replaced %v",
			st.Failed, st.Reason, st.Tasks, rt.ctl != kept)
	}
}

// TestAttachedAllocsPerCycleConstant is the allocation guard of the one
// per-task record: with a tracer's hooks and a profiler attached,
// what a steady-state cycle allocates beyond the same cycle with nothing
// attached is a small constant — the cycle's record slice and the tracer's
// batch — whether the cycle runs a dozen tasks or a couple of hundred. It
// was seven allocations per task when every task built its own span. Not
// under the race detector, whose own allocations AllocsPerRun counts too:
// on a loaded host they pushed the difference past the bound now and then.
func TestAttachedAllocsPerCycleConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	nw, _, ws := buildNet(t)
	measure := func(rt *Runtime, ws []*wme.WME) (allocs float64, tasks int) {
		add, del := deltas(ws), removals(ws)
		allocs = testing.AllocsPerRun(100, func() {
			tasks = rt.RunCycle(add).Tasks
			rt.RunCycle(del)
		})
		return allocs, tasks
	}
	small, big := ws[:4], ws
	plain := New(nw, Config{Processes: 1, Policy: WorkStealing})
	small0, _ := measure(plain, small)
	big0, _ := measure(plain, big)

	nw.Prof = rete.NewProf(int(nw.MaxNodeID())+1, 64)
	attached := New(nw, Config{Processes: 1, Policy: WorkStealing})
	attached.SetObserver((&obs.Observer{Reg: obs.NewRegistry(), Trc: obs.NewTracer()}).MatchHooks(0))
	small1, nSmall := measure(attached, small)
	big1, nBig := measure(attached, big)

	if nSmall > 20 || nBig < 150 {
		t.Fatalf("cycles of %d and %d tasks do not span the sizes this test is about", nSmall, nBig)
	}
	extraSmall, extraBig := small1-small0, big1-big0
	// 4 and 4 as built by go test. One per task would be +181.
	if extraBig-extraSmall > 4 || extraBig > 12 {
		t.Fatalf("attached cycles allocate %v extra at %d tasks and %v extra at %d tasks per add+remove pair; want the same small constant",
			extraSmall, nSmall, extraBig, nBig)
	}
}
