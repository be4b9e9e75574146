package engine_test

import (
	"io"
	"sync"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/fault"
	"soarpsme/internal/obs"
	"soarpsme/internal/prun"
	"soarpsme/internal/rete"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// crossingSrc joins wide batches without a negated condition, and the
// runs below switch unlinking off, so every NetStats counter but NullActs
// is the same whatever order a cycle's tasks run in.
const crossingSrc = `
(literalize a k) (literalize b k) (literalize c k)
(p pair (a ^k <k>) (b ^k <k>) --> (make o))
(p triple (a ^k <k>) (b ^k <k>) (c ^k <k>) --> (make o2))
`

// crossingCycles is the run's deltas: each cycle adds some sixty wmes, or,
// every third cycle, removes the oldest batch still live.
func crossingCycles(e *engine.Engine, n int) [][]wme.Delta {
	mk := func(class string, k int) wme.Delta {
		cls := e.Tab.Intern(class)
		idx, _ := e.Reg.FieldIndex(cls, e.Tab.Intern("k"), true)
		fields := make([]value.Value, idx+1)
		fields[idx] = value.IntVal(int64(k))
		return wme.Delta{Op: wme.Add, WME: e.WM.Make(cls, fields)}
	}
	var out, live [][]wme.Delta
	for c := 1; c <= n; c++ {
		if c%3 == 0 {
			rm := append([]wme.Delta(nil), live[0]...)
			live = live[1:]
			for i := range rm {
				rm[i].Op = wme.Remove
			}
			out = append(out, rm)
			continue
		}
		var add []wme.Delta
		for k := c * 100; k < c*100+36; k++ {
			add = append(add, mk("a", k))
			if k%2 == 0 {
				add = append(add, mk("b", k))
			}
			if k%4 == 0 {
				add = append(add, mk("c", k))
			}
		}
		live = append(live, add)
		out = append(out, add)
	}
	return out
}

// orderFree reads the NetStats counters a cycle's task order cannot move
// on crossingSrc: NullActs can, since which of two partners comes second
// decides which of them emits, and NullSuppressed is zero.
func orderFree(nw *rete.Network) [6]int64 {
	s := &nw.Stats
	return [6]int64{s.ConstTests.Load(), s.AlphaHits.Load(), s.AlphaMisses.Load(),
		s.Activations.Load(), s.Comparisons.Load(), s.TokensEmitted.Load()}
}

// TestCrossingUnderScrape runs cycles that cross part-way through — one
// task in sixteen stalls for the CLI's stall, and the lead starts the
// helper once it has held its backlog across one — while another goroutine collects the engine's
// registry in a loop, as a /metrics scrape does. The lead writes lines,
// queues and tallies without a lock until the crossing, so under -race
// this pins that a scrape reads none of them. Each cycle's conflict set
// and order-free NetStats must equal the serial run's, and once the scrape
// has stopped the registry must equal the engine's own counts.
func TestCrossingUnderScrape(t *testing.T) {
	const cycles = 9
	type cycle struct {
		fp  string
		net [6]int64
	}
	run := func(procs int, pol prun.Policy, o *obs.Observer) ([]cycle, []prun.CycleStats, *engine.Engine) {
		cfg := engine.DefaultConfig()
		cfg.Processes, cfg.Policy, cfg.Obs = procs, pol, o
		cfg.Rete.Unlink = false
		if procs > 1 {
			cfg.Fault = fault.Seeded(3, fault.Rates{Stall: 1 << 12, StallFor: fault.DefaultRates().StallFor})
		}
		e := engine.New(cfg)
		if err := e.LoadProgram(crossingSrc); err != nil {
			t.Fatal(err)
		}
		var stats []prun.CycleStats
		e.AfterCycle = func(cs *prun.CycleStats) { stats = append(stats, *cs) }
		var out []cycle
		for _, batch := range crossingCycles(e, cycles) {
			e.ApplyAndMatch(batch)
			out = append(out, cycle{csFingerprint(e), orderFree(e.NW)})
		}
		return out, stats, e
	}
	want, _, _ := run(1, prun.MultiQueue, nil)
	for _, pol := range []prun.Policy{prun.MultiQueue, prun.WorkStealing} {
		t.Run(pol.String(), func(t *testing.T) {
			o := obs.New()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if err := o.Reg.WriteText(io.Discard); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			got, stats, e := run(2, pol, o)
			close(stop)
			wg.Wait()
			crossed := 0
			for c, cs := range stats {
				if cs.Failed {
					t.Fatalf("cycle %d failed: %s", c, cs.Reason)
				}
				if cs.Workers > 1 {
					crossed++
				}
				if got[c] != want[c] {
					t.Fatalf("cycle %d (%d processes) diverged from the serial run:\n got %+v\nwant %+v", c, cs.Workers, got[c], want[c])
				}
			}
			if crossed == 0 {
				t.Fatalf("no cycle of %d crossed", len(stats))
			}
			t.Logf("%d of %d cycles crossed", crossed, len(stats))
			if err := o.Reg.WriteText(io.Discard); err != nil {
				t.Fatal(err)
			}
			_, la := e.NW.Mem.LockStats()
			_, l, r := e.NW.Mem.Tallies()
			_, qa := e.RT.QueueLockStats()
			for name, want := range map[string]uint64{
				"hash_line_lock_acquires_total": la,
				"hash_bucket_accesses_total":    l + r,
				"queue_lock_acquires_total":     qa,
			} {
				if got := o.Counter(name).Value(); got != want {
					t.Fatalf("%s = %d after the scrape stopped, the engine counts %d", name, got, want)
				}
			}
		})
	}
}
