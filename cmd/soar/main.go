// Command soar runs a Soar task (Eight-Puzzle-Soar, Strips-Soar, Towers of
// Hanoi or the blocks world) on the Soar/PSM-E architecture, with chunking
// off or on, and optionally an after-chunking re-run.
//
// Usage:
//
//	soar [-task eight-puzzle|strips|hanoi|blocks] [-procs N] [-chunking]
//	     [-after] [-decisions N] [-dtrace] [-trace out.json]
//	     [-metrics out.txt] [-listen :6060] [-fault-seed N] [-deadline 2s]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"soarpsme/internal/engine"
	"soarpsme/internal/fault"
	"soarpsme/internal/obs"
	"soarpsme/internal/soar"
	"soarpsme/internal/tasks/blocks"
	"soarpsme/internal/tasks/eightpuzzle"
	"soarpsme/internal/tasks/hanoi"
	"soarpsme/internal/tasks/strips"
)

// tasks maps each -task name, hyphens dropped, to its constructor.
var tasks = map[string]func() *soar.Task{
	"eightpuzzle": eightpuzzle.Default,
	"strips":      strips.Default,
	"hanoi":       hanoi.Default,
	"blocks":      blocks.Default,
}

func main() {
	taskName := flag.String("task", "eight-puzzle", "task: eight-puzzle, strips, hanoi, or blocks")
	procs := flag.Int("procs", 1, "number of match processes")
	chunking := flag.Bool("chunking", false, "enable chunking (during-chunking run)")
	after := flag.Bool("after", false, "run again with the learned chunks (after-chunking run)")
	decisions := flag.Int("decisions", 400, "decision-cycle bound")
	dtrace := flag.Bool("dtrace", false, "print decision-level trace")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file (open in chrome://tracing)")
	metricsOut := flag.String("metrics", "", "write a Prometheus-text metrics snapshot at exit")
	listen := flag.String("listen", "", "serve /metrics and /debug/pprof on this address (e.g. :6060)")
	faultSeed := flag.Int64("fault-seed", 0, "inject a seeded fault schedule into the match workers (0 = off); failed cycles recover via the serial fallback")
	deadline := flag.Duration("deadline", 0, "per-cycle quiescence watchdog deadline (0 = off)")
	flag.Parse()
	// Flag checks come before anything runs, so a usage error exits 2
	// with nothing on stdout. Task names accept both "eight-puzzle" and
	// "eightpuzzle".
	newTask := tasks[strings.ReplaceAll(*taskName, "-", "")]
	usage := ""
	switch {
	case newTask == nil:
		usage = fmt.Sprintf("unknown task %q", *taskName)
	case *after && !*chunking:
		usage = "-after requires -chunking"
	}
	if usage != "" {
		fmt.Fprintln(os.Stderr, "soar:", usage)
		os.Exit(2)
	}

	observer, flush, err := obs.Setup(*traceOut, *metricsOut, *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "soar:", err)
		os.Exit(1)
	}
	// An interrupt mid-run still flushes complete -trace/-metrics files,
	// and so does a run that fails.
	flush = obs.FlushOnInterrupt(flush)
	fail := func(msg ...any) {
		fmt.Fprintln(os.Stderr, append([]any{"soar:"}, msg...)...)
		if err := flush(); err != nil {
			fmt.Fprintln(os.Stderr, "soar:", err)
		}
		os.Exit(1)
	}

	cfg := soar.Config{Engine: engine.DefaultConfig(), Chunking: *chunking, MaxDecisions: *decisions}
	cfg.Engine.Processes = *procs
	cfg.Engine.Obs = observer
	if *faultSeed != 0 {
		cfg.Engine.Fault = fault.Seeded(*faultSeed, fault.DefaultRates())
	}
	cfg.Engine.Deadline = *deadline
	if *dtrace {
		cfg.Trace = os.Stderr
	}

	run := func(label string, seed *soar.Agent) *soar.Agent {
		a, err := soar.New(cfg, newTask())
		if err != nil {
			fail(err)
		}
		if seed != nil {
			n, err := a.AdoptChunks(seed)
			if err != nil {
				fail("chunk transfer:", err)
			}
			fmt.Printf(";; transferred %d chunks\n", n)
		}
		res, err := a.Run()
		if err != nil {
			fail(err)
		}
		fmt.Printf(";; %s: solved=%v decisions=%d elab-cycles=%d chunks-built=%d\n",
			label, res.Halted, res.Decisions, res.ElabCycles, res.ChunksBuilt)
		tot := &a.Eng.Totals
		fmt.Printf(";;   match: %d cycles, %d tasks, modeled time %.2fs, wm=%d\n",
			a.Eng.Cycles(), tot.Tasks, float64(tot.Cost)/1e6, a.Eng.WM.Len())
		return a
	}

	mode := "without chunking"
	if *chunking {
		mode = "during chunking"
	}
	first := run(fmt.Sprintf("%s (%s, %d procs)", *taskName, mode, *procs), nil)
	if *after {
		run(fmt.Sprintf("%s (after chunking)", *taskName), first)
	}
	if err := flush(); err != nil {
		fmt.Fprintln(os.Stderr, "soar:", err)
		os.Exit(1)
	}
}
