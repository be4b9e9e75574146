// Fault matrix: every fault schedule crossed with every scheduling policy,
// several process counts and a program on each side of the runtime's
// helper threshold must leave the engine in a state byte-identical to a
// fault-free serial run — the serial-fallback guarantee. The test is in
// an external package because it drives the whole engine (which itself
// imports fault).
package fault_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"soarpsme/internal/engine"
	"soarpsme/internal/fault"
	"soarpsme/internal/prun"
	"soarpsme/internal/tasks/cypress"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// matrixParams is kept small: the matrix multiplies it by 5 schedules x 2
// policies x 3 process counts x two cypress programs, and CI runs the whole
// thing under -race.
var matrixParams = cypress.Params{Productions: 60, Cycles: 20, Seed: 5}

// A program is one workload of the matrix: load compiles it into e and
// returns the source of its per-cycle delta batches. Some cycle of a
// helpers program must start helpers, and every cycle of the other kind
// must stay on its caller's goroutine (checked on the fault-free schedule).
// A noUnlink program runs with left/right unlinking off: the paper's
// engine, which schedules every null activation as a task.
type program struct {
	name     string
	cycles   int
	helpers  bool
	noUnlink bool
	load     func(t *testing.T, e *engine.Engine) (batch func() []wme.Delta)
}

// cypressProgram is the paper's small-cycle workload: a few deltas and,
// with unlinking, a handful of tasks per cycle. With split, every delta is
// a cycle of its own — what a served b=1 /run is.
func cypressProgram(name string, split bool) program {
	cycles := matrixParams.Cycles
	if split {
		cycles *= 3
	}
	return program{name: name, cycles: cycles, load: func(t *testing.T, e *engine.Engine) func() []wme.Delta {
		sys := cypress.Generate(matrixParams)
		if err := e.LoadProgram(sys.Source); err != nil {
			t.Fatalf("load: %v", err)
		}
		drv := cypress.NewDriver(sys, e.Tab, e.WM)
		var rest []wme.Delta
		return func() []wme.Delta {
			if !split {
				return drv.Batch()
			}
			for len(rest) == 0 {
				rest = drv.Batch()
			}
			one := rest[:1]
			rest = rest[1:]
			return one
		}
	}}
}

// fanoutProgram joins wide batches: each cycle adds (or, every third cycle,
// removes) some sixty wmes whose pairs and triples match independently, so
// every cycle is past the helper threshold at injection.
var fanoutProgram = program{name: "fanout", cycles: 9, helpers: true, load: func(t *testing.T, e *engine.Engine) func() []wme.Delta {
	const src = `
(literalize a k) (literalize b k) (literalize c k)
(p pair (a ^k <k>) (b ^k <k>) --> (make o))
(p triple (a ^k <k>) (b ^k <k>) (c ^k <k>) --> (make o2))
(p nopair (a ^k <k>) -(b ^k <k>) --> (make o3))
`
	if err := e.LoadProgram(src); err != nil {
		t.Fatalf("load: %v", err)
	}
	mk := func(class string, k int) wme.Delta {
		cls := e.Tab.Intern(class)
		idx, _ := e.Reg.FieldIndex(cls, e.Tab.Intern("k"), true)
		fields := make([]value.Value, idx+1)
		fields[idx] = value.IntVal(int64(k))
		return wme.Delta{Op: wme.Add, WME: e.WM.Make(cls, fields)}
	}
	var live [][]wme.Delta
	cycle := 0
	return func() []wme.Delta {
		cycle++
		if cycle%3 == 0 {
			out := live[0]
			live = live[1:]
			for i := range out {
				out[i].Op = wme.Remove
			}
			return out
		}
		var out []wme.Delta
		for k := cycle * 100; k < cycle*100+36; k++ {
			out = append(out, mk("a", k))
			if k%2 == 0 {
				out = append(out, mk("b", k))
			}
			if k%4 == 0 {
				out = append(out, mk("c", k))
			}
		}
		live = append(live, out)
		return append([]wme.Delta(nil), out...)
	}
}}

// run drives one program for one configuration and returns the per-cycle
// conflict-set fingerprints and match-cycle stats, plus the engine for
// post-run audits.
func run(t *testing.T, prog program, procs int, pol prun.Policy, in *fault.Injector, deadline time.Duration) ([]string, []prun.CycleStats, *engine.Engine) {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.Processes = procs
	cfg.Policy = pol
	cfg.Fault = in
	cfg.Deadline = deadline
	cfg.Rete.Unlink = !prog.noUnlink
	e := engine.New(cfg)
	var stats []prun.CycleStats
	e.AfterCycle = func(cs *prun.CycleStats) { stats = append(stats, *cs) }
	batch := prog.load(t, e)
	fps := make([]string, 0, prog.cycles)
	for c := 0; c < prog.cycles; c++ {
		e.ApplyAndMatch(batch())
		fps = append(fps, fingerprint(e))
	}
	return fps, stats, e
}

// fingerprint renders the live conflict set (plus the working-memory size)
// as a canonical string: production name and CE-ordered wme time tags per
// instantiation, sorted. Pointer identities are deliberately excluded so
// fingerprints compare across engines.
func fingerprint(e *engine.Engine) string {
	insts := e.CS.All()
	lines := make([]string, 0, len(insts))
	for _, in := range insts {
		var sb strings.Builder
		sb.WriteString(in.Prod.Name)
		sb.WriteByte('(')
		for i, w := range in.WMEs {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", w.TimeTag)
		}
		sb.WriteByte(')')
		lines = append(lines, sb.String())
	}
	sort.Strings(lines)
	return fmt.Sprintf("wm=%d cs=%d %s", e.WM.Len(), len(insts), strings.Join(lines, " "))
}

func TestFaultMatrix(t *testing.T) {
	schedules := []struct {
		name         string
		mk           func() *fault.Injector // fresh injector per run (visit counters are stateful)
		deadline     time.Duration
		wantRecovery bool // schedule must fail at least one cycle, and every failure must recover
	}{
		{name: "none", mk: func() *fault.Injector { return nil }},
		{
			name: "planned-panics",
			mk: func() *fault.Injector {
				return fault.Plan(
					fault.Fault{Site: fault.SiteExec, Kind: fault.KindPanic, Visit: 3},
					fault.Fault{Site: fault.SiteExec, Kind: fault.KindPanic, Visit: 41},
					fault.Fault{Site: fault.SiteExec, Kind: fault.KindPanic, Visit: 97},
				)
			},
			wantRecovery: true,
		},
		{
			name: "stall-watchdog",
			mk: func() *fault.Injector {
				return fault.Plan(fault.Fault{Site: fault.SiteExec, Kind: fault.KindStall, Visit: 5, Delay: 30 * time.Second})
			},
			deadline:     50 * time.Millisecond,
			wantRecovery: true,
		},
		{
			name: "seeded-drops",
			mk:   func() *fault.Injector { return fault.Seeded(7, fault.Rates{DropSteal: 20000}) },
			// Dropped steals perturb the schedule but never fail a cycle.
		},
		{
			name: "seeded-panics",
			// ~9% per exec visit: unlinking suppresses most null activations,
			// leaving this workload only ~40 exec visits per run, so the rate
			// must be hot enough to fire at least once within that budget.
			mk:           func() *fault.Injector { return fault.Seeded(11, fault.Rates{Panic: 6000}) },
			wantRecovery: true,
		},
	}
	policies := []prun.Policy{prun.MultiQueue, prun.WorkStealing}
	procCounts := []int{1, 4, 13}

	paper := cypressProgram("cypress-nounlink", false)
	paper.noUnlink = true
	programs := []program{cypressProgram("cypress", false), paper, fanoutProgram}
	baselines := make([][]string, len(programs))
	for i, prog := range programs {
		var be *engine.Engine
		baselines[i], _, be = run(t, prog, 1, prun.MultiQueue, nil, 0)
		if err := be.AuditInvariants(); err != nil {
			t.Fatalf("%s: baseline audit: %v", prog.name, err)
		}
	}

	for _, sched := range schedules {
		for _, pol := range policies {
			for _, procs := range procCounts {
				if testing.Short() && procs == 13 {
					continue
				}
				sched, pol, procs := sched, pol, procs
				t.Run(fmt.Sprintf("%s/%v/p%d", sched.name, pol, procs), func(t *testing.T) {
					t.Parallel()
					for i, prog := range programs {
						t.Run(prog.name, func(t *testing.T) {
							in := sched.mk()
							fps, stats, e := run(t, prog, procs, pol, in, sched.deadline)
							failed := checkRun(t, e, fps, baselines[i], stats, in, sched.wantRecovery)
							if sched.name != "none" {
								return
							}
							if len(failed) != 0 {
								t.Fatalf("fault-free run failed %d cycles", len(failed))
							}
							widest := 0
							for _, cs := range stats {
								widest = max(widest, cs.Workers)
							}
							if procs > 1 && (widest > 1) != prog.helpers {
								t.Fatalf("widest cycle ran %d processes: helpers started, or not, against what this program is in the matrix for", widest)
							}
						})
					}
				})
			}
		}
	}
}

// checkRun asserts the serial-fallback guarantee on one finished run: every
// cycle's fingerprint equals the fault-free serial baseline's, the audit
// holds, and every failed cycle was recovered — at least one of them, when
// the schedule is meant to fail cycles. It returns the failed cycles.
func checkRun(t *testing.T, e *engine.Engine, fps, baseline []string, stats []prun.CycleStats, in *fault.Injector, wantRecovery bool) (failed []prun.CycleStats) {
	t.Helper()
	for c := range fps {
		if fps[c] != baseline[c] {
			t.Fatalf("cycle %d diverged from fault-free serial baseline:\n got  %s\n want %s", c, fps[c], baseline[c])
		}
	}
	if err := e.AuditInvariants(); err != nil {
		t.Fatalf("post-run audit: %v", err)
	}
	for _, cs := range stats {
		if cs.Failed {
			if !cs.Recovered {
				t.Fatalf("cycle failed (%s) without recovery", cs.Reason)
			}
			failed = append(failed, cs)
		}
	}
	if wantRecovery && len(failed) == 0 {
		t.Fatalf("schedule injected no cycle failure (injector fired %d faults over %d exec visits)",
			in.Fired(), in.Visits(fault.SiteExec))
	}
	return failed
}

// TestCallerProcessSupervised covers supervision when the match process IS
// the caller: every cycle is one delta at Processes=4, so no cycle starts a
// goroutine and every fault lands on the goroutine that called
// ApplyAndMatch — this test's own. An injected panic must leave that
// goroutine (and the process) alive with the cycle reported Failed and
// recovered by the serial replay; a stall must be ended by the watchdog,
// not by its minute-long delay; and either way the fingerprints are those
// of a clean run.
func TestCallerProcessSupervised(t *testing.T) {
	prog := cypressProgram("cypress-b1", true)
	baseline, _, _ := run(t, prog, 1, prun.MultiQueue, nil, 0)
	for _, pol := range []prun.Policy{prun.MultiQueue, prun.WorkStealing} {
		in := fault.Plan(
			fault.Fault{Site: fault.SiteExec, Kind: fault.KindPanic, Visit: 0},
			fault.Fault{Site: fault.SiteExec, Kind: fault.KindPanic, Visit: 9},
		)
		fps, stats, e := run(t, prog, 4, pol, in, 0)
		failed := checkRun(t, e, fps, baseline, stats, in, true)
		for _, cs := range failed {
			if cs.Panics != 1 || !strings.Contains(cs.Reason, "worker 0 panic") {
				t.Fatalf("%v: failed cycle has Panics=%d Reason=%q, want one panic on worker 0", pol, cs.Panics, cs.Reason)
			}
		}
		if int64(len(failed)) != in.Fired() || len(failed) != 2 {
			t.Fatalf("%v: %d injected panics failed %d cycles, want 2 and 2", pol, in.Fired(), len(failed))
		}

		in = fault.Plan(fault.Fault{Site: fault.SiteExec, Kind: fault.KindStall, Visit: 2, Delay: time.Minute})
		start := time.Now()
		fps, stats, e = run(t, prog, 4, pol, in, 50*time.Millisecond)
		failed = checkRun(t, e, fps, baseline, stats, in, true)
		if len(failed) != 1 || !strings.Contains(failed[0].Reason, "watchdog") {
			t.Fatalf("%v: stalled run failed %d cycles (%+v), want one watchdog expiry", pol, len(failed), failed)
		}
		if d := time.Since(start); d > 20*time.Second {
			t.Fatalf("%v: stalled run took %v: the watchdog did not wake the caller", pol, d)
		}
		for _, cs := range stats {
			if cs.Workers != 1 {
				t.Fatalf("%v: a one-delta cycle ran %d processes", pol, cs.Workers)
			}
		}
	}
}
