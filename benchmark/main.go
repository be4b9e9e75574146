// Command psmebench is the repository's benchmark: five fixed-work
// workloads driven in-process against soarpsme/internal/..., one workload
// per foreground process, no listener and no child process. An untraced run
// reports the end-to-end metrics named in BENCHMARK.json; a traced run
// (-trace 1) records a span around every call the harness makes into a
// layer, runs the isolation passes of layers.go, and reports the per-layer
// metrics. See README.md for why each workload exists.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	quick    bool
	out      string
}

// A run nominally takes -seconds of timed phase plus nominalOverhead
// seconds of set-ups, layer suite and calibration. Past watchdogFactor
// times that the process exits with watchdogExit, so a wedged workload
// cannot outlive its caller's patience. There is nothing to reap: the
// harness starts no child process.
const (
	nominalOverhead = 20
	watchdogFactor  = 3
	watchdogExit    = 3
)

// removeDataDirs deletes the durable-session directories of this and any
// earlier killed run.
func removeDataDirs(out string) {
	dirs, _ := filepath.Glob(filepath.Join(out, "data-*"))
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psmebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Uint64Var(&opt.seed, "seed", 1, "input seed: feeds cypress.Params.Seed, the ingest key/class stream and the soar task order")
	fs.IntVar(&opt.seconds, "seconds", 10, "nominal length of the timed phase on the reference host; fixes the script's round count")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: spans, isolation passes and the per-layer table; 0 = end-to-end metrics")
	fs.BoolVar(&opt.quick, "quick", false, "divide every round count by 10 (tests)")
	fs.StringVar(&opt.out, "out", "benchmark/out", "directory for trace files and durable-session data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace != 0
	w := findWorkload(opt.workload)
	if w == nil || opt.seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "psmebench: need -workload (one of %s) and -seconds >= 1\n", workloadNames())
		return 2
	}

	limit := watchdogFactor * time.Duration(opt.seconds+nominalOverhead) * time.Second
	dog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "psmebench: %s exceeded %v, giving up\n", opt.workload, limit)
		removeDataDirs(opt.out)
		os.Exit(watchdogExit)
	})
	defer dog.Stop()

	res, err := runWorkload(w, opt, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "psmebench:", err)
		return 1
	}
	res.print(stdout)
	return 0
}
