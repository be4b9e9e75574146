// Command experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §4 for the index and EXPERIMENTS.md for
// paper-vs-measured commentary). Every capture runs one engine, the paper's:
// unlinking off, because its engine scheduled every null activation; only
// the abl-unlink and abl-bilinear ablations turn it on.
//
// Usage:
//
//	experiments [-exp all|t51|t52|t61|f61|f62|...|extras] [-plot]
//	            [-trace out.json] [-metrics out.txt] [-listen :6060]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"soarpsme/internal/exp"
	"soarpsme/internal/obs"
	"soarpsme/internal/stats"
)

type runner struct {
	id   string
	desc string
	fn   func(*exp.Lab) (string, error)
}

var plotFigures bool

func str(f func(*exp.Lab) (fmt.Stringer, error)) func(*exp.Lab) (string, error) {
	return func(l *exp.Lab) (string, error) {
		v, err := f(l)
		if err != nil {
			return "", err
		}
		if fig, ok := v.(*stats.Figure); ok && plotFigures {
			return fig.Plot(64, 18) + "\n" + fig.String(), nil
		}
		return v.String(), nil
	}
}

var runners = []runner{
	{"t51", "Table 5-1: CEs and code size per chunk", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.Table51(l) })},
	{"t52", "Table 5-2: chunk compile time, shared vs unshared", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.Table52(l) })},
	{"t61", "Table 6-1: task granularity", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.Table61(l) })},
	{"f61", "Figure 6-1: speedups, single queue", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.Fig61(l) })},
	{"f62", "Figure 6-2: hash bucket contention", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.Fig62(l) })},
	{"f63", "Figure 6-3: task-queue contention", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.Fig63(l) })},
	{"f64", "Figure 6-4: speedups, multiple queues", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.Fig64(l) })},
	{"f65", "Figure 6-5: per-cycle speedups", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.Fig65(l) })},
	{"f66", "Figure 6-6: tasks in system over time", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.Fig66(l) })},
	{"f67", "Figure 6-7: long-chain productions", exp.Fig67},
	{"f68", "Figure 6-8: constrained bilinear networks", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.Fig68(l) })},
	{"f69", "Figure 6-9: update-phase speedups", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.Fig69(l) })},
	{"f610", "Figure 6-10: after-chunking speedups", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.Fig610(l) })},
	{"f611", "Figure 6-11: tasks/cycle without chunking", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.Fig611(l) })},
	{"f612", "Figure 6-12: tasks/cycle after chunking", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.Fig612(l) })},
	{"extras", "prose measurements (5.1, 6.3)", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.Extras(l) })},
	{"abl-mem", "ablation: hashed vs linear memories (6.1)", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.AblationMemories(l) })},
	{"abl-share", "ablation: node sharing (5.1)", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.AblationSharing(l) })},
	{"abl-unlink", "ablation: left/right unlinking + hashed alpha dispatch", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.AblationUnlink(l) })},
	{"abl-bilinear", "ablation: automatic bilinear restructuring (6-8, cypress)", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.AblationBilinear(l) })},
	{"abl-async", "future work: asynchronous elaboration (7)", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.AblationAsync(l) })},
	{"abl-queues", "scheduling: per-cycle oracle queue counts (6.2)", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.AblationAdaptiveQueues(l) })},
	{"diagnose", "diagnostics: causes of low-speedup cycles (7)", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.DiagnoseTable(l) })},
	{"longrun", "future work: chunking over long periods (7)", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.LongRunChunking(l) })},
	{"summary", "reproduction scorecard", str(func(l *exp.Lab) (fmt.Stringer, error) { return exp.Summary(l) })},
}

// known reports whether which names an experiment, or is "all".
func known(which string) bool {
	for _, r := range runners {
		if strings.EqualFold(which, r.id) {
			return true
		}
	}
	return which == "all"
}

// report renders the experiments which names ("all" or one id) through l to
// w, in runners order, and calls done with each id once its section is
// written.
func report(w io.Writer, l *exp.Lab, which string, done func(id string)) error {
	for _, r := range runners {
		if which != "all" && !strings.EqualFold(which, r.id) {
			continue
		}
		text, err := r.fn(l)
		if err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
		fmt.Fprintf(w, "==== %s (%s) ====\n%s\n", r.id, r.desc, text)
		done(r.id)
	}
	return nil
}

func main() {
	which := flag.String("exp", "all", "experiment id (t51..f612, extras) or all")
	plot := flag.Bool("plot", false, "render figures as ASCII charts too")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file of the captured runs")
	metricsOut := flag.String("metrics", "", "write a Prometheus-text metrics snapshot at exit")
	listen := flag.String("listen", "", "serve /metrics and /debug/pprof while experiments run (e.g. :6060)")
	flag.Parse()
	plotFigures = *plot
	if !known(*which) {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", *which)
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
	err = report(os.Stdout, l, *which, func(id string) {
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
