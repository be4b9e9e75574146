package prun

import (
	"fmt"
	"testing"
	"time"

	"soarpsme/internal/fault"
	"soarpsme/internal/ops5"
	"soarpsme/internal/rete"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// TestSmallCycleStartsNoGoroutine pins the below-threshold side of the
// crossing under every policy: a four-wme add/remove pair at Processes=4
// runs on the caller alone — one process in the stats, every task record on
// lane 0 — and allocates strictly less than it did when every cycle started
// four goroutines and parked its caller on a WaitGroup. Allocations per
// pair, the test listener's included, multi-queue / work-stealing: 177 /
// 196 at commit fb78b2f, 159 / 178 since: nine fewer per cycle. (The
// policies differ because the order the tasks retire in, and so the
// listener's work, does.)
func TestSmallCycleStartsNoGoroutine(t *testing.T) {
	parentAllocsPerPair := map[Policy]float64{MultiQueue: 177, WorkStealing: 196}
	for _, pol := range allPolicies {
		t.Run(pol.String(), func(t *testing.T) {
			nw, _, ws := buildNet(t)
			add, del := deltas(ws[:4]), removals(ws[:4])
			traced := New(nw, Config{Processes: 4, Policy: pol, CaptureTrace: true})
			for i, st := range []CycleStats{traced.RunCycle(add), traced.RunCycle(del)} {
				if st.Tasks == 0 || st.Tasks >= helperThreshold {
					t.Fatalf("cycle %d ran %d tasks; this test wants a cycle below the threshold of %d", i, st.Tasks, helperThreshold)
				}
				if st.Workers != 1 || st.TermProbes != 1 || st.FailedPops != 0 {
					t.Fatalf("cycle %d: Workers=%d TermProbes=%d FailedPops=%d, want 1, 1, 0", i, st.Workers, st.TermProbes, st.FailedPops)
				}
				for _, r := range st.Trace {
					if r.Worker != 0 {
						t.Fatalf("cycle %d: task %d ran on worker %d", i, r.Seq, r.Worker)
					}
				}
			}
			rt := New(nw, Config{Processes: 4, Policy: pol})
			got := testing.AllocsPerRun(200, func() {
				rt.RunCycle(add)
				rt.RunCycle(del)
			})
			if got >= parentAllocsPerPair[pol] {
				t.Fatalf("a below-threshold add/remove pair allocates %v, want fewer than the parent's %v", got, parentAllocsPerPair[pol])
			}
		})
	}
}

// fanNet compiles one production whose first condition matches a single
// hub wme and whose second matches every spoke: adding the hub to a memory
// of spokes is a cycle of ONE root task that emits a task per spoke.
func fanNet(t *testing.T, spokes int) (nw *rete.Network, cs *csCount, hub *wme.WME, rim []*wme.WME) {
	t.Helper()
	cs = &csCount{m: map[string]int{}}
	nw = rete.NewNetwork(value.NewTable(), wme.NewRegistry(), cs, rete.DefaultOptions())
	prog, err := ops5.Parse(`(p fan (hub ^k <k>) (spoke ^k <k>) (rim ^k <k>) --> (make o))`, nw.Tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := nw.AddProduction(prog.Productions[0]); err != nil {
		t.Fatal(err)
	}
	mem := wme.NewMemory()
	mk := func(class string) *wme.WME { return makeK(nw, mem, class, 7) }
	for i := 0; i < spokes; i++ {
		rim = append(rim, mk("spoke"))
	}
	rim = append(rim, mk("rim"))
	return nw, cs, mk("hub"), rim
}

// TestCrossingStartsHelpersMidCycle pins the other side: a cycle injected
// as one root task starts on the caller alone, fans out past the threshold,
// and must start every granted helper mid-cycle — with the conflict set of
// the single-threaded oracle. CI runs it under -race and with GOMAXPROCS=1.
func TestCrossingStartsHelpersMidCycle(t *testing.T) {
	const spokes = 3 * helperThreshold
	hubCycle := func(cfg Config) (CycleStats, []string) {
		nw, cs, hub, rim := fanNet(t, spokes)
		cfg.CaptureTrace = true
		rt := New(nw, cfg)
		rt.RunCycle(deltas(rim))
		st := rt.RunCycle(deltas([]*wme.WME{hub}))
		roots := 0
		for _, r := range st.Trace {
			if r.Parent == 0 {
				roots++
			}
		}
		if roots != 1 || st.Tasks <= helperThreshold {
			t.Fatalf("%v/%d: hub cycle has %d root tasks of %d; want one root fanning out past %d", cfg.Policy, cfg.Processes, roots, st.Tasks, helperThreshold)
		}
		return st, cs.keys()
	}
	_, want := hubCycle(Config{Processes: 1})
	if len(want) != spokes {
		t.Fatalf("oracle conflict set has %d instantiations, want %d", len(want), spokes)
	}
	for _, pol := range allPolicies {
		for _, procs := range []int{2, 4, 13} {
			st, got := hubCycle(Config{Processes: procs, Policy: pol})
			if st.Workers != procs || st.TermProbes != int64(procs) {
				t.Fatalf("%v/%d: Workers=%d TermProbes=%d, want every granted process started", pol, procs, st.Workers, st.TermProbes)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v/%d: conflict set diverged from the single-threaded oracle:\n got %v\nwant %v", pol, procs, got, want)
			}
		}
		// A contended budget grants the crossing what is free, not what is configured.
		b := NewBudget(3)
		if st, _ := hubCycle(Config{Processes: 13, Policy: pol, Budget: b}); st.Workers != 3 || b.InUse() != 0 {
			t.Fatalf("%v: Workers=%d under a 3-slot budget (in use after: %d), want 3 and 0", pol, st.Workers, b.InUse())
		}
	}
}

// TestBudgetSlotHeldOnlyByRunningProcess is the budget's bugfix test: two
// runtimes of two processes share a two-slot budget. A is stalled inside a
// below-threshold cycle; at the parent commit it held both slots for the
// length of the cycle, so B's cycle slept in Acquire until A was over.
func TestBudgetSlotHeldOnlyByRunningProcess(t *testing.T) {
	b := NewBudget(2)
	nwA, _, wsA := buildNet(t)
	nwB, _, wsB := buildNet(t)
	stall := fault.Plan(fault.Fault{Site: fault.SiteExec, Kind: fault.KindStall, Visit: 0, Delay: time.Minute})
	rtA := New(nwA, Config{Processes: 2, Policy: WorkStealing, Budget: b, Fault: stall})
	rtB := New(nwB, Config{Processes: 2, Policy: WorkStealing, Budget: b})

	aDone := make(chan CycleStats, 1)
	go func() { aDone <- rtA.RunCycle(deltas(wsA[:4])) }()
	for stall.Visits(fault.SiteExec) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// The visit count is read atomically after worker 0's begin wrote ctl,
	// so this read is ordered; poisoning is the only way to end the stall.
	release := rtA.workers[0].ctl
	defer release.poison("test: released")
	if got := b.InUse(); got != 1 {
		t.Fatalf("one stalled process of a below-threshold cycle holds %d budget slots, want 1", got)
	}

	bDone := make(chan CycleStats, 1)
	go func() { bDone <- rtB.RunCycle(deltas(wsB[:4])) }()
	select {
	case st := <-bDone:
		if st.Failed || st.Workers != 1 || st.Tasks == 0 {
			t.Fatalf("B's cycle: Failed=%v Workers=%d Tasks=%d", st.Failed, st.Workers, st.Tasks)
		}
	case st := <-aDone:
		t.Fatalf("A's stalled cycle ended (Failed=%v) before B's could run", st.Failed)
	case <-time.After(10 * time.Second):
		t.Fatalf("B's cycle did not complete while A was stalled (budget in use: %d)", b.InUse())
	}
	if got := b.InUse(); got != 1 {
		t.Fatalf("budget in use after B's cycle = %d, want A's one slot", got)
	}
	release.poison("test: released")
	if st := <-aDone; !st.Failed || st.Workers != 1 {
		t.Fatalf("A's released cycle: Failed=%v Workers=%d, want a failed one-process cycle", st.Failed, st.Workers)
	}
	if got := b.InUse(); got != 0 {
		t.Fatalf("budget in use at rest = %d", got)
	}
}
