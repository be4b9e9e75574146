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
func fanNet(t testing.TB, spokes int) (nw *rete.Network, cs *csCount, hub *wme.WME, rim []*wme.WME) {
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

// stallAt is the paper-sized task of this package's tests: a plan that
// stalls each exec visit named for helperAfter, so a backlog held across
// such a task lasts long enough to cross.
func stallAt(visits ...uint64) *fault.Injector {
	fs := make([]fault.Fault, len(visits))
	for i, v := range visits {
		fs[i] = fault.Fault{Site: fault.SiteExec, Kind: fault.KindStall, Visit: v, Delay: helperAfter}
	}
	return fault.Plan(fs...)
}

// hubCycle runs fanNet's hub cycle under cfg, after a cycle that fills the
// spoke memory: one root task whose child fans out past the threshold.
// With stall, exec visit 2 of the hub cycle — the first task run while the
// fan-out waits — is stalled for helperAfter. It returns the cycle's stats,
// its conflict set and its wall-clock time.
func hubCycle(t *testing.T, cfg Config, stall bool) (CycleStats, []string, time.Duration) {
	t.Helper()
	const spokes = 3 * helperThreshold
	nw, cs, hub, rim := fanNet(t, spokes)
	cfg.CaptureTrace = true
	rt := New(nw, cfg)
	rt.RunCycle(deltas(rim))
	if stall {
		rt.cfg.Fault = stallAt(2)
	}
	start := time.Now()
	st := rt.RunCycle(deltas([]*wme.WME{hub}))
	took := time.Since(start)
	roots := 0
	for _, r := range st.Trace {
		if r.Parent == 0 {
			roots++
		}
	}
	if roots != 1 || st.Tasks <= helperThreshold {
		t.Fatalf("%v/%d: hub cycle has %d root tasks of %d; want one root fanning out past %d", cfg.Policy, cfg.Processes, roots, st.Tasks, helperThreshold)
	}
	keys := cs.keys()
	if len(keys) != spokes {
		t.Fatalf("%v/%d: hub cycle built %d instantiations, want %d", cfg.Policy, cfg.Processes, len(keys), spokes)
	}
	return st, keys, took
}

// TestCrossingKeepsFineBacklogOnLead pins the fine-grained side of the
// crossing: a hub cycle of 1 µs tasks holds a backlog of up to three times
// the threshold for far less than helperAfter, so it runs on the caller
// alone, with the conflict set of the single-threaded oracle. Only a cycle
// that lasted helperAfter may start helpers; such an attempt, one the host
// held up, is retried. Under -race a task costs several µs and the cycle
// can outlast helperAfter on its own, so there the test checks only that
// no shorter cycle crossed.
func TestCrossingKeepsFineBacklogOnLead(t *testing.T) {
	_, want, _ := hubCycle(t, Config{Processes: 1}, false)
	for _, pol := range allPolicies {
		for _, procs := range []int{2, 4, 13} {
			const attempts = 5
			var st CycleStats
			for range attempts {
				var got []string
				var took time.Duration
				st, got, took = hubCycle(t, Config{Processes: procs, Policy: pol}, false)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%v/%d: conflict set diverged from the single-threaded oracle:\n got %v\nwant %v", pol, procs, got, want)
				}
				if st.Workers == 1 {
					break
				}
				if took < helperAfter {
					t.Fatalf("%v/%d: a %v cycle started %d processes, before its backlog could last %v", pol, procs, took, st.Workers, helperAfter)
				}
			}
			if raceEnabled && st.Workers > 1 {
				continue
			}
			if st.Workers != 1 || st.TermProbes != 1 || st.Steals != 0 {
				t.Fatalf("%v/%d: Workers=%d TermProbes=%d Steals=%d in each of %d attempts, want 1, 1, 0", pol, procs, st.Workers, st.TermProbes, st.Steals, attempts)
			}
		}
	}
}

// TestCrossingStartsHelpersMidCycle pins the coarse side: a hub cycle
// whose first fanned-out task is stalled for helperAfter starts on the
// caller alone, holds its backlog across that task, and must then start
// every granted helper mid-cycle — with the conflict set of the
// single-threaded oracle. CI runs it under -race and with GOMAXPROCS=1.
func TestCrossingStartsHelpersMidCycle(t *testing.T) {
	// Tests outside this package stall tasks for the CLI's stall to make a
	// cycle cross; it must outlast the crossing.
	if d := fault.DefaultRates().StallFor; d <= helperAfter {
		t.Fatalf("the CLI's stall of %v does not outlast helperAfter (%v): stalled tasks elsewhere no longer cross", d, helperAfter)
	}
	_, want, _ := hubCycle(t, Config{Processes: 1}, true)
	for _, pol := range allPolicies {
		for _, procs := range []int{2, 4, 13} {
			st, got, _ := hubCycle(t, Config{Processes: procs, Policy: pol}, true)
			if st.Workers != procs || st.TermProbes != int64(procs) {
				t.Fatalf("%v/%d: Workers=%d TermProbes=%d, want every granted process started", pol, procs, st.Workers, st.TermProbes)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v/%d: conflict set diverged from the single-threaded oracle:\n got %v\nwant %v", pol, procs, got, want)
			}
		}
		// A contended budget grants the crossing what is free, not what is configured.
		b := NewBudget(3)
		if st, _, _ := hubCycle(t, Config{Processes: 13, Policy: pol, Budget: b}, true); st.Workers != 3 || b.InUse() != 0 {
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
