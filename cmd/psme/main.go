// Command psme runs an OPS5 program through the parallel PSM-E match
// engine: the recognize-act cycle with LEX/MEA conflict resolution, match
// parallelized over N match processes with one task queue each.
//
// Usage:
//
//	psme [-procs N] [-stats] [-cycles N] [-watch N] [-network]
//	     [-trace out.json] [-metrics out.txt] [-listen :6060]
//	     [-fault-seed N] [-deadline 2s] program.ops
package main

import (
	"flag"
	"fmt"
	"os"

	"soarpsme/internal/engine"
	"soarpsme/internal/fault"
	"soarpsme/internal/obs"
)

func main() {
	procs := flag.Int("procs", 1, "number of match processes")
	showStats := flag.Bool("stats", false, "print match statistics")
	maxCycles := flag.Int("cycles", 10000, "recognize-act cycle bound")
	watch := flag.Int("watch", 0, "trace level: 1 = firings, 2 = +wme changes")
	network := flag.Bool("network", false, "print the compiled Rete network and exit")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file (open in chrome://tracing)")
	metricsOut := flag.String("metrics", "", "write a Prometheus-text metrics snapshot at exit")
	listen := flag.String("listen", "", "serve /metrics and /debug/pprof on this address (e.g. :6060)")
	faultSeed := flag.Int64("fault-seed", 0, "inject a seeded fault schedule into the match workers (0 = off); failed cycles recover via the serial fallback")
	deadline := flag.Duration("deadline", 0, "per-cycle quiescence watchdog deadline (0 = off)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: psme [flags] program.ops")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "psme:", err)
		os.Exit(1)
	}

	observer, flush, err := obs.Setup(*traceOut, *metricsOut, *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psme:", err)
		os.Exit(1)
	}
	// An interrupt mid-run still flushes complete -trace/-metrics files,
	// and so does a run that fails.
	flush = obs.FlushOnInterrupt(flush)
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "psme:", err)
		if err := flush(); err != nil {
			fmt.Fprintln(os.Stderr, "psme:", err)
		}
		os.Exit(1)
	}

	cfg := engine.DefaultConfig()
	cfg.Processes = *procs
	if *faultSeed != 0 {
		cfg.Fault = fault.Seeded(*faultSeed, fault.DefaultRates())
	}
	cfg.Deadline = *deadline
	cfg.MaxCycles = *maxCycles
	cfg.Watch = *watch
	cfg.Output = os.Stdout
	cfg.Obs = observer

	e := engine.New(cfg)
	if err := e.LoadProgram(string(src)); err != nil {
		fail(err)
	}
	if *network {
		fmt.Print(e.NW.FormatNetwork())
		return
	}
	fired, err := e.RunOPS5()
	if err != nil {
		fail(err)
	}
	fmt.Printf(";; %d firings, halted=%v, wm=%d wmes\n", fired, e.Halted(), e.WM.Len())
	if *showStats {
		tot := &e.Totals
		fmt.Printf(";; cycles=%d tasks=%d modeled-match-time=%.3fs two-input-nodes=%d\n",
			e.Cycles(), tot.Tasks, float64(tot.Cost)/1e6, e.NW.TwoInputNodes())
		spins, acquires := e.NW.Mem.LockStats()
		fmt.Printf(";; hash-line lock: %d acquires, %d spins\n", acquires, spins)
		qs, qa := e.RT.QueueLockStats()
		fmt.Printf(";; task-queue lock: %d acquires, %d spins\n", qa, qs)
		fmt.Printf(";; task-queue: %d failed pops, %d steals, %d quiescence probes\n",
			tot.FailedPops, tot.Steals, tot.TermProbes)
		st := &e.NW.Stats
		fmt.Printf(";; match filtering: %d null activations suppressed, alpha dispatch %d hits / %d misses\n",
			st.NullSuppressed.Load(), st.AlphaHits.Load(), st.AlphaMisses.Load())
	}
	if err := flush(); err != nil {
		fmt.Fprintln(os.Stderr, "psme:", err)
		os.Exit(1)
	}
}
