// Command psmed is the match-service daemon: it hosts many independent
// engine sessions in one process behind the internal/serve HTTP/JSON API,
// all sessions sharing one match-worker budget.
//
// Every request gets a structured log line (log/slog, text or JSON) with a
// request ID that is echoed in the X-Request-ID header and in 429/503
// bodies. Match profiling is always on: /debug/match serves per-session
// and aggregate cost-attribution snapshots, and /debug/match/flight serves
// the latest anomaly flight-recorder dump (watchdog, panic recovery,
// serial fallback, or p99 SLO breach; -flight-dir also writes dumps to
// disk as matchflight-*.json).
//
// Lifecycle: on SIGTERM/SIGINT the daemon drains — it stops admitting
// requests (503), finishes every cycle already accepted, flushes the obs
// sinks, and exits 0. A second signal force-exits.
//
// With -data DIR sessions are durable (DESIGN §10): every session keeps a
// snapshot image plus a write-ahead delta journal under DIR/<id>/, serves
// POST /sessions/{id}/snapshot and /restore, and a drain writes a final
// snapshot so a restart resumes with zero WAL replay. -kill-after N arms
// a fault-injection kill switch that SIGKILLs the process after N
// requests — the crash the durability layer must absorb.
//
// Usage:
//
//	psmed [-addr :8740] [-workers N] [-procs N] [-policy work-stealing]
//	      [-queue-depth 4] [-max-sessions 64] [-deadline 0] [-unlink]
//	      [-data DIR] [-kill-after 0]
//	      [-trace out.json] [-metrics out.txt] [-listen :6060]
//	      [-drain-timeout 30s] [-log-json] [-quiet]
//	      [-flight-dir DIR] [-flight-cycles 16] [-slo 0] [-sample-every 64]
//	      [-fault-seed 0]
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"soarpsme/internal/fault"
	"soarpsme/internal/matchprof"
	"soarpsme/internal/obs"
	"soarpsme/internal/prun"
	"soarpsme/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8740", "service listen address")
	workers := flag.Int("workers", 0, "shared match-worker budget across all sessions (0 = GOMAXPROCS)")
	procs := flag.Int("procs", 4, "per-session worker width requested from the budget")
	policy := flag.String("policy", "work-stealing", "default scheduling policy: single-queue, multi-queue, or work-stealing")
	queueDepth := flag.Int("queue-depth", 4, "per-session admission queue depth (full queue = 429)")
	maxSessions := flag.Int("max-sessions", 64, "concurrent session limit")
	deadline := flag.Duration("deadline", 0, "default per-cycle watchdog deadline; a wedged cycle degrades to the serial fallback (0 = off)")
	unlink := flag.Bool("unlink", true, "left/right unlinking in session engines: run activations against provably empty opposite memories without scheduling tasks")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file at exit")
	metricsOut := flag.String("metrics", "", "write a Prometheus-text metrics snapshot at exit")
	listen := flag.String("listen", "", "serve obs diagnostics (/metrics, /debug/pprof) on this address")
	logJSON := flag.Bool("log-json", false, "emit request logs as JSON instead of logfmt-style text")
	quiet := flag.Bool("quiet", false, "disable per-request logging")
	flightDir := flag.String("flight-dir", "", "write anomaly flight-recorder dumps (matchflight-*.json) into this directory")
	flightCycles := flag.Int("flight-cycles", 16, "flight-recorder ring size in cycles (negative disables the recorder)")
	slo := flag.Duration("slo", 0, "p99 cycle-latency SLO; a rolling-window breach trips the flight recorder (0 = off)")
	sampleEvery := flag.Int("sample-every", 64, "wall-clock sample one match task in N (power of two)")
	faultSeed := flag.Int64("fault-seed", 0, "seed deterministic fault injection into every session's match workers (0 = off)")
	faultPanic := flag.Int("fault-panic", -1, "override the injected panic rate per 65536 exec visits (-1 = default schedule)")
	dataDir := flag.String("data", "", "durable session state directory: per-session snapshot image + write-ahead delta journal, enabling /snapshot, /restore, and drain-to-snapshot on SIGTERM")
	killAfter := flag.Int64("kill-after", 0, "fault injection: self-SIGKILL after serving N requests — no drain, no snapshot (0 = off; pairs with -data to exercise crash restore)")
	flag.Parse()

	pol, err := prun.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psmed:", err)
		os.Exit(2)
	}
	observer, flush, err := obs.Setup(*traceOut, *metricsOut, *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psmed:", err)
		os.Exit(1)
	}
	if observer == nil {
		// No sinks configured: still collect the service metrics so a later
		// restart with -listen/-metrics is the only change needed — but no
		// tracer, whose events nothing could ever read.
		observer = &obs.Observer{Reg: obs.NewRegistry()}
	}

	var logger *slog.Logger
	if !*quiet {
		if *logJSON {
			logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
		} else {
			logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
		}
	}
	var inj *fault.Injector
	if *faultSeed != 0 {
		rates := fault.DefaultRates()
		if *faultPanic >= 0 {
			rates.Panic = uint32(*faultPanic)
		}
		inj = fault.Seeded(*faultSeed, rates)
	}

	srv := serve.New(serve.Config{
		Workers:     *workers,
		Processes:   *procs,
		Policy:      pol,
		QueueDepth:  *queueDepth,
		MaxSessions: *maxSessions,
		Deadline:    *deadline,
		Unlink:      unlink,
		Obs:         observer,
		Log:         logger,
		Fault:       inj,
		DataDir:     *dataDir,
		Prof: &matchprof.Options{
			SampleEvery:  *sampleEvery,
			FlightCycles: *flightCycles,
			FlightDir:    *flightDir,
			SLO:          *slo,
		},
	})
	var handler http.Handler = srv.Handler()
	if ks := fault.NewKillSwitch(*killAfter); ks != nil {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			inner.ServeHTTP(w, r)
			// Tick after the response: the Nth request is answered, then the
			// process dies mid-fleet — the deterministic crash CI's
			// restore-storm-smoke leg keys off.
			if r.URL.Path != "/healthz" {
				ks.Tick()
			}
		})
		fmt.Fprintf(os.Stderr, ";; psmed: kill switch armed: SIGKILL after %d requests\n", *killAfter)
	}
	hs := &http.Server{Addr: *addr, Handler: handler}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, ";; psmed: serving on %s (workers=%d procs=%d policy=%v)\n",
		*addr, srv.Budget().Cap(), *procs, pol)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "psmed:", err)
		if ferr := flush(); ferr != nil {
			fmt.Fprintln(os.Stderr, "psmed: flush:", ferr)
		}
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, ";; psmed: %v: draining (in-flight cycles finish; new requests get 503)\n", sig)
	}

	// Drain: stop admitting, then let the HTTP server wait out in-flight
	// handlers — each of which is waiting on its session's command loop, so
	// accepted cycles complete. A second signal aborts the wait.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, ";; psmed: second signal: aborting drain")
		cancel()
	}()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, ";; psmed: drain:", err)
		hs.Close()
	}
	cancel()
	srv.Close()
	if err := flush(); err != nil {
		fmt.Fprintln(os.Stderr, "psmed: flush:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, ";; psmed: drained, exiting")
}
