package obs

import (
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// Setup builds an Observer from the common CLI flag values: a Chrome-trace
// output path (-trace), a Prometheus-text output path (-metrics), and a
// diagnostics listen address (-listen). When all three are empty it returns
// a nil Observer — callers pass it straight into the engine config and
// every hook stays a no-op. The tracer is attached only for -trace, whose
// file is its one reader; -metrics and -listen collect no events.
//
// The returned flush function writes the output files and shuts down the
// server; call it once on every exit path after Setup, a failed run's
// included (it is non-nil even when disabled).
func Setup(tracePath, metricsPath, listen string) (*Observer, func() error, error) {
	if tracePath == "" && metricsPath == "" && listen == "" {
		return nil, func() error { return nil }, nil
	}
	o := &Observer{Reg: NewRegistry()}
	if tracePath != "" {
		o.Trc = NewTracer()
	}
	var srv *server
	if listen != "" {
		s, err := serve(listen, o.Reg)
		if err != nil {
			return nil, nil, fmt.Errorf("obs: listen %s: %w", listen, err)
		}
		srv = s
		fmt.Fprintf(os.Stderr, ";; obs: diagnostics on http://%s/ (/metrics, /debug/pprof/)\n", s.addr())
	}
	flush := func() error {
		var first error
		if tracePath != "" {
			if err := writeFile(tracePath, func(f *os.File) error { return o.Trc.WriteJSON(f) }); err != nil && first == nil {
				first = err
			}
		}
		if metricsPath != "" {
			if err := writeFile(metricsPath, func(f *os.File) error { return o.Reg.WriteText(f) }); err != nil && first == nil {
				first = err
			}
		}
		if srv != nil {
			if err := srv.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return o, flush, nil
}

// FlushOnInterrupt wraps a Setup flush so an interrupted run still writes
// complete -trace/-metrics files: it installs a SIGINT/SIGTERM handler that
// runs the flush and exits with the conventional status (130 for SIGINT,
// 143 for SIGTERM) instead of letting the default handler kill the process
// mid-write. The returned function is the flush to call on the normal exit
// path; both it and the signal path run the underlying flush exactly once.
// Daemons that drain on SIGTERM (psmed) install their own handler and must
// not use this.
func FlushOnInterrupt(flush func() error) func() error {
	var once sync.Once
	run := func() error {
		var err error
		once.Do(func() { err = flush() })
		return err
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-ch
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, ";; obs: %v: flushing trace/metrics\n", sig)
		if err := run(); err != nil {
			fmt.Fprintln(os.Stderr, ";; obs: flush:", err)
		}
		code := 130 // SIGINT
		if sig == syscall.SIGTERM {
			code = 143
		}
		os.Exit(code)
	}()
	return func() error {
		signal.Stop(ch)
		close(ch)
		return run()
	}
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
