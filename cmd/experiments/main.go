// Command experiments regenerates every table and figure of the paper's
// evaluation section and the scorecard of its claims (internal/exp; see
// DESIGN.md §4 and EXPERIMENTS.md). Every capture runs the paper's engine,
// unlinking off; only the abl-unlink and abl-bilinear ablations turn it on.
//
// Usage:
//
//	experiments [-exp all|t51|t52|t61|f61|f62|...|extras] [-plot]
//	            [-trace out.json] [-metrics out.txt] [-listen :6060]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"soarpsme/internal/exp"
	"soarpsme/internal/obs"
)

func main() {
	which := flag.String("exp", "all", "experiment id (t51..f612, extras) or all")
	plot := flag.Bool("plot", false, "render figures as ASCII charts too")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file of the captured runs")
	metricsOut := flag.String("metrics", "", "write a Prometheus-text metrics snapshot at exit")
	listen := flag.String("listen", "", "serve /metrics and /debug/pprof while experiments run (e.g. :6060)")
	flag.Parse()
	render, err := exp.Report(*which, *plot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	observer, flush, err := obs.Setup(*traceOut, *metricsOut, *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	// An interrupt mid-run still flushes complete -trace/-metrics files,
	// and so does a run that fails.
	flush = obs.FlushOnInterrupt(flush)

	l := exp.NewLab()
	l.SetObserver(observer)
	start := time.Now()
	err = render(os.Stdout, l, func(id string) {
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
		start = time.Now()
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
	if ferr := flush(); ferr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", ferr)
		err = ferr
	}
	if err != nil {
		os.Exit(1)
	}
}
