package prun

import (
	"fmt"
	"reflect"
	"testing"

	"soarpsme/internal/fault"
	"soarpsme/internal/obs"
	"soarpsme/internal/ops5"
	"soarpsme/internal/rete"
	"soarpsme/internal/wme"
)

// allPolicies covers the paper's multi-queue spin-lock policy and the
// lock-free work-stealing runtime.
var allPolicies = []Policy{MultiQueue, WorkStealing}

// stressProcs spans the paper's range: sequential, mid, and the full 13
// processes of the Encore Multimax runs.
var stressProcs = []int{1, 4, 13}

// oracle runs the workload single-threaded and returns the reference
// instantiations and task count. With one process there is no contention
// and — after the quiescence-accounting fix — no failed pops: the only
// failed pop a lone worker can see is the one that detects termination,
// which is counted as a TermProbe instead.
func oracle(t *testing.T) (keys []string, tasks int) {
	t.Helper()
	nw, cs, ws := buildNet(t)
	rt := New(nw, Config{Processes: 1})
	st := rt.RunCycle(deltas(ws))
	if st.FailedPops != 0 {
		t.Fatalf("single-threaded oracle saw %d failed pops (termination probes leaking into contention)", st.FailedPops)
	}
	if st.Steals != 0 {
		t.Fatalf("single-threaded oracle saw %d steals", st.Steals)
	}
	if st.TermProbes != 1 {
		t.Fatalf("single-threaded oracle saw %d termination probes, want 1", st.TermProbes)
	}
	return cs.keys(), st.Tasks
}

// TestQuiescenceStress asserts, across every policy × process count, that
// a cycle terminates exactly at quiescence: no lost tasks and no premature
// termination (the conflict set matches the single-threaded oracle, and a
// drain cycle empties every memory), with the steal/failed-pop/term-probe
// counters obeying their oracle values. At Processes=1 both policies
// execute the identical LIFO order, so the task count must equal the
// oracle's exactly; at higher counts the negated condition makes child-task
// counts schedule-dependent, and the conflict set is the invariant. Above
// one process each trial's first task is stalled for helperAfter, so its
// add cycle crosses and runs with helpers. Run under -race (CI) and with
// GOMAXPROCS=1 (CI leg) to catch Gosched-dependent livelocks.
func TestQuiescenceStress(t *testing.T) {
	refKeys, refTasks := oracle(t)
	trials := 3
	if testing.Short() {
		trials = 1
	}
	for _, pol := range allPolicies {
		for _, procs := range stressProcs {
			t.Run(fmt.Sprintf("%v/procs=%d", pol, procs), func(t *testing.T) {
				parallel := 0
				for trial := 0; trial < trials; trial++ {
					nw, cs, ws := buildNet(t)
					cfg := Config{Processes: procs, Policy: pol}
					if procs > 1 {
						cfg.Fault = stallAt(0)
					}
					rt := New(nw, cfg)
					st := rt.RunCycle(deltas(ws))
					if st.Workers > 1 {
						parallel++
					}
					if st.Tasks == 0 {
						t.Fatalf("trial %d: no tasks executed", trial)
					}
					if procs == 1 && st.Tasks != refTasks {
						t.Fatalf("trial %d: sequential run executed %d tasks, oracle %d", trial, st.Tasks, refTasks)
					}
					// No premature termination, no lost tasks: the full
					// conflict set built.
					if got := cs.keys(); fmt.Sprint(got) != fmt.Sprint(refKeys) {
						t.Fatalf("trial %d: conflict set diverged:\n got %v\nwant %v", trial, got, refKeys)
					}
					// Counter oracles. Every process that ran detects
					// quiescence exactly once per cycle.
					if st.TermProbes != int64(st.Workers) {
						t.Fatalf("trial %d: %d termination probes, want %d (one per process that ran)", trial, st.TermProbes, st.Workers)
					}
					if procs == 1 {
						if st.FailedPops != 0 {
							t.Fatalf("trial %d: lone worker counted %d failed pops", trial, st.FailedPops)
						}
						if st.Steals != 0 {
							t.Fatalf("trial %d: lone worker counted %d steals", trial, st.Steals)
						}
					}
					// Drain: removing everything must leave no residue and
					// still terminate (the remove cycle re-exercises
					// quiescence detection on a shrinking task population).
					var dels []wme.Delta
					for _, w := range ws {
						dels = append(dels, wme.Delta{Op: wme.Remove, WME: w})
					}
					st = rt.RunCycle(dels)
					if st.Workers > 1 {
						parallel++
					}
					if st.TermProbes != int64(st.Workers) {
						t.Fatalf("trial %d (drain): %d termination probes, want %d", trial, st.TermProbes, st.Workers)
					}
					if got := cs.keys(); len(got) != 0 {
						t.Fatalf("trial %d: conflict set not empty after drain: %v", trial, got)
					}
					if l, r := nw.Mem.Entries(); l != 0 || r != 0 {
						t.Fatalf("trial %d: memories not empty: %d,%d", trial, l, r)
					}
					if n := nw.Mem.Tombstones(); n != 0 {
						t.Fatalf("trial %d: %d tombstones", trial, n)
					}
				}
				t.Logf("%d of %d cycles ran with helpers", parallel, 2*trials)
				if procs > 1 && parallel == 0 {
					t.Fatalf("no cycle ran with helpers")
				}
			})
		}
	}
}

// TestWorkStealingSeededUpdate runs the §5.2 state-update cycle under the
// work-stealing policy: the seeds and the pruned alpha walk must bring the
// new production's instantiations into the conflict set.
func TestWorkStealingSeededUpdate(t *testing.T) {
	nw, cs, ws := buildNet(t)
	rt := New(nw, Config{Processes: 4, Policy: WorkStealing, CaptureTrace: true})
	rt.RunCycle(deltas(ws))
	before := len(cs.keys())

	ast, err := ops5.ParseProduction(`(p seeded-ws (a ^k <k>) (c ^k <k>) --> (make o9))`, nw.Tab)
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := nw.AddProduction(ast)
	if err != nil {
		t.Fatal(err)
	}
	st := rt.RunSeeded(info, nw.SeedUpdateTasks(info), ws)
	if st.Tasks == 0 {
		t.Fatalf("seeded run executed nothing")
	}
	if len(st.Trace) != st.Tasks {
		t.Fatalf("trace len %d != tasks %d", len(st.Trace), st.Tasks)
	}
	if got := len(cs.keys()); got != before+10 {
		t.Fatalf("CS after seeded update = %d, want %d", got, before+10)
	}
	if n := nw.Mem.Tombstones(); n != 0 {
		t.Fatalf("tombstones: %d", n)
	}
}

// removals is the drain cycle of ws: every wme removed.
func removals(ws []*wme.WME) []wme.Delta {
	out := make([]wme.Delta, len(ws))
	for i, w := range ws {
		out[i] = wme.Delta{Op: wme.Remove, WME: w}
	}
	return out
}

// TestWorkStealingFreeListRecycles asserts, under every policy at 1, 2 and
// 4 match processes, that the per-worker free lists survive across cycles,
// stay bounded, hold only cleared tasks (a parked task must not pin its
// token, wme or batch slice), and are abandoned when a poisoned cycle is
// drained — and that across the add, drain, poisoned and serial-replay
// cycles the observer's registry counters equal the summed CycleStats:
// collect publishes each counter once per cycle, whatever path ran it.
func TestWorkStealingFreeListRecycles(t *testing.T) {
	for _, pol := range allPolicies {
		t.Run(pol.String(), func(t *testing.T) {
			for _, procs := range []int{1, 2, 4} {
				nw, _, ws := buildNet(t)
				rt := New(nw, Config{Processes: procs, Policy: pol})
				h := obs.New().MatchHooks(0)
				rt.SetObserver(h)
				var sum CycleStats
				run := func(st CycleStats) CycleStats {
					sum.Tasks += st.Tasks
					sum.FailedPops += st.FailedPops
					sum.TermProbes += st.TermProbes
					sum.Steals += st.Steals
					sum.Panics += st.Panics
					return st
				}
				check := func(when string) (freed int) {
					for _, w := range rt.workers {
						if len(w.free) > freeListCap {
							t.Fatalf("procs=%d %s: worker %d free list over cap: %d", procs, when, w.id, len(w.free))
						}
						for _, task := range w.free {
							if !parkedBlank(task) {
								t.Fatalf("procs=%d %s: worker %d parks a task that was not cleared: %+v", procs, when, w.id, *task)
							}
						}
						freed += len(w.free)
					}
					return freed
				}
				run(rt.RunCycle(deltas(ws)))
				first := check("after the add cycle")
				if first == 0 {
					t.Fatalf("procs=%d: no tasks recycled into the free lists", procs)
				}
				// Every executed task is parked again, so below the cap the
				// lists only grow (by the tasks a cycle had to allocate).
				run(rt.RunCycle(removals(ws)))
				if got := check("after the drain cycle"); got < first {
					t.Fatalf("procs=%d: free lists shrank across a cycle: %d -> %d", procs, first, got)
				}

				// A poisoned cycle abandons every list.
				rt.cfg.Fault = fault.Plan(fault.Fault{Site: fault.SiteExec, Kind: fault.KindPanic, Visit: 3})
				if st := run(rt.RunCycle(deltas(ws))); !st.Failed || st.Panics != 1 {
					t.Fatalf("procs=%d: injected panic gave Failed=%v Panics=%d", procs, st.Failed, st.Panics)
				}
				if got := check("after a poisoned cycle"); got != 0 {
					t.Fatalf("procs=%d: drainPoisoned left %d tasks on the free lists", procs, got)
				}
				if rt.pending.Load() != 0 {
					t.Fatalf("procs=%d: drainPoisoned left pending = %d", procs, rt.pending.Load())
				}

				// The engine's degradation path: reset, then replay serially.
				nw.ResetMatchState()
				if st := run(rt.ReplaySerial(ws)); !st.Recovered || st.Tasks == 0 {
					t.Fatalf("procs=%d: serial replay gave Recovered=%v Tasks=%d", procs, st.Recovered, st.Tasks)
				}

				for _, c := range []struct {
					name      string
					got, want uint64
				}{
					{"match_tasks_total", h.Tasks.Value(), uint64(sum.Tasks)},
					{"queue_failed_pops_total", h.FailedPops.Value(), uint64(sum.FailedPops)},
					{"queue_term_probes_total", h.TermProbes.Value(), uint64(sum.TermProbes)},
					{"queue_steals_total", h.Steals.Value(), uint64(sum.Steals)},
					{"worker_panics_total", h.Panics.Value(), uint64(sum.Panics)},
					{"match_task_cost_us count", h.TaskCost.Count(), uint64(sum.Tasks)},
				} {
					if c.got != c.want {
						t.Fatalf("procs=%d: registry %s = %d, summed CycleStats say %d", procs, c.name, c.got, c.want)
					}
				}
			}
		})
	}
}

// TestFreeListRebalance pins how a cycle that started helpers hands its
// tasks back: dealing uneven lists conserves every parked task; after a live
// cycle that stole, the lists of the processes that ran differ by at most
// one, none exceeds freeListCap, every parked task is blank, no task is
// parked twice and none is lost; and a poisoned cycle still abandons every
// list. CI runs it twenty times under -race with the crossing tests.
func TestFreeListRebalance(t *testing.T) {
	for _, lens := range [][]int{{0, 7, 3}, {freeListCap, 0}, {1, 0, 0, 0}, {5}, {0, 0}} {
		var ws []*worker
		before := map[*rete.Task]bool{}
		for _, n := range lens {
			w := &worker{}
			for range n {
				task := new(rete.Task)
				before[task] = true
				w.free = append(w.free, task)
			}
			ws = append(ws, w)
		}
		rebalance(ws)
		after := map[*rete.Task]bool{}
		lo, hi := freeListCap, 0
		for _, w := range ws {
			lo, hi = min(lo, len(w.free)), max(hi, len(w.free))
			for _, task := range w.free {
				after[task] = true
			}
		}
		if hi-lo > 1 || !reflect.DeepEqual(after, before) {
			t.Fatalf("dealing lists of %v: lengths from %d to %d, %d of %d tasks kept", lens, lo, hi, len(after), len(before))
		}
	}

	for _, pol := range allPolicies {
		for _, procs := range []int{2, 4} {
			t.Run(fmt.Sprintf("%v/procs=%d", pol, procs), func(t *testing.T) {
				nw, _, ws := buildNet(t)
				rt := New(nw, Config{Processes: procs, Policy: pol})
				parked := 0
				check := func(st CycleStats) {
					seen := map[*rete.Task]bool{}
					lo, hi, total := freeListCap, 0, 0
					for _, w := range rt.workers[:st.Workers] {
						lo, hi = min(lo, len(w.free)), max(hi, len(w.free))
						for _, task := range w.free {
							if seen[task] {
								t.Fatalf("task %p is parked twice", task)
							}
							seen[task] = true
							if !parkedBlank(task) {
								t.Fatalf("a parked task was not cleared: %+v", *task)
							}
						}
					}
					for _, w := range rt.workers {
						total += len(w.free)
					}
					if st.Workers > 1 && hi-lo > 1 {
						t.Fatalf("after a %d-process cycle the free lists range from %d to %d tasks", st.Workers, lo, hi)
					}
					if hi > freeListCap {
						t.Fatalf("a free list holds %d tasks, over the cap of %d", hi, freeListCap)
					}
					// Below the cap every executed task is parked again.
					if total < parked {
						t.Fatalf("the free lists shrank across a cycle: %d -> %d", parked, total)
					}
					parked = total
				}
				// Every add cycle's first task is stalled, so it crosses,
				// and so is its second, so that the helpers run and steal
				// even on one P; the removal cycles keep their 1 µs tasks.
				stole := 0
				for i := 0; i < 100 && stole < 3; i++ {
					for _, batch := range [][]wme.Delta{deltas(ws), removals(ws)} {
						rt.cfg.Fault = nil
						if batch[0].Op == wme.Add {
							rt.cfg.Fault = stallAt(0, 1)
						}
						st := rt.RunCycle(batch)
						check(st)
						if st.Workers > 1 && st.Steals > 0 {
							stole++
						}
					}
				}
				if stole == 0 {
					t.Fatalf("no cycle started a helper and stole in 200 cycles")
				}

				// A poisoned cycle past the crossing abandons every list.
				rt.cfg.Fault = fault.Plan(
					fault.Fault{Site: fault.SiteExec, Kind: fault.KindStall, Visit: 0, Delay: helperAfter},
					fault.Fault{Site: fault.SiteExec, Kind: fault.KindPanic, Visit: 2 * helperThreshold})
				if st := rt.RunCycle(deltas(ws)); !st.Failed || st.Workers < 2 {
					t.Fatalf("injected panic gave Failed=%v Workers=%d, want a failed cycle with helpers", st.Failed, st.Workers)
				}
				for _, w := range rt.workers {
					if len(w.free) != 0 {
						t.Fatalf("drainPoisoned left %d tasks on worker %d's free list", len(w.free), w.id)
					}
				}
			})
		}
	}
}

// traceKey is the part of a TaskRec the simulator's figures are built on.
type traceKey struct {
	Seq, Parent int64
	Node        rete.NodeID
	Depth       int32
}

func traceKeys(recs []TaskRec) []traceKey {
	out := make([]traceKey, len(recs))
	for i, r := range recs {
		out[i] = traceKey{r.Seq, r.Parent, r.Node, r.Depth}
	}
	return out
}

// TestOneProcessPolicyEquivalence pins the invariant the simulator figures
// rest on: with one match process both policies are the same LIFO
// stack, so an injected cycle, a seeded update cycle and a drain cycle
// execute the identical task sequence — same Seq order, parents, nodes and
// depths — whichever policy captured it, with unlinking on and off.
func TestOneProcessPolicyEquivalence(t *testing.T) {
	for _, unlink := range []bool{true, false} {
		var ref [][]traceKey
		for _, pol := range allPolicies {
			opts := rete.DefaultOptions()
			opts.Unlink = unlink
			nw, _, ws := buildNetOpts(t, opts)
			rt := New(nw, Config{Processes: 1, Policy: pol, CaptureTrace: true})
			got := [][]traceKey{traceKeys(rt.RunCycle(deltas(ws)).Trace)}

			ast, err := ops5.ParseProduction(`(p seeded-eq (a ^k <k>) (c ^k <k>) --> (make o9))`, nw.Tab)
			if err != nil {
				t.Fatal(err)
			}
			_, info, err := nw.AddProduction(ast)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, traceKeys(rt.RunSeeded(info, nw.SeedUpdateTasks(info), ws).Trace))
			got = append(got, traceKeys(rt.RunCycle(removals(ws)).Trace))

			for i, tr := range got {
				if len(tr) == 0 {
					t.Fatalf("unlink=%v %v: cycle %d captured no trace", unlink, pol, i)
				}
			}
			if ref == nil {
				ref = got
				continue
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], ref[i]) {
					t.Fatalf("unlink=%v: cycle %d under %v executed a different task sequence than under %v (%d vs %d tasks)",
						unlink, i, pol, allPolicies[0], len(got[i]), len(ref[i]))
				}
			}
		}
	}
}

// parkedBlank reports whether a parked task is blank: every field zero but
// Supp, which may keep an empty batch array whose entries are all cleared.
func parkedBlank(task *rete.Task) bool {
	blank := *task
	blank.Supp = nil
	if !reflect.DeepEqual(blank, rete.Task{}) || len(task.Supp) != 0 {
		return false
	}
	for _, e := range task.Supp[:cap(task.Supp)] {
		if e != (rete.SuppRight{}) {
			return false
		}
	}
	return true
}
