// Command psmegw is the shard router in front of a psmed fleet: it
// places sessions on backends by rendezvous hashing, proxies the serve
// HTTP/JSON API, health-checks the fleet, and on backend loss restores
// the victim's sessions onto survivors from the shared data directory
// (psmed -data). Clients keep one base URL across failovers; a request
// retried with its Seq is answered exactly once.
//
// Lifecycle mirrors psmed: SIGTERM/SIGINT stops the health loop, flushes
// the obs sinks, and exits 0.
//
// Usage:
//
//	psmegw -backends http://127.0.0.1:8741,http://127.0.0.1:8742
//	       [-addr :8740] [-health-interval 250ms] [-fail-threshold 3]
//	       [-restore-wait 30s] [-trace out.json] [-metrics out.txt]
//	       [-listen :6060] [-log-json] [-quiet]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"soarpsme/internal/gateway"
	"soarpsme/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8740", "gateway listen address")
	backends := flag.String("backends", "", "comma-separated psmed base URLs (required; the fleet must share one -data directory)")
	healthInterval := flag.Duration("health-interval", 250*time.Millisecond, "backend health-probe period")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive probe failures that declare a backend dead")
	restoreWait := flag.Duration("restore-wait", 30*time.Second, "how long a proxied request waits for an in-flight failover restore")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file at exit")
	metricsOut := flag.String("metrics", "", "write a Prometheus-text metrics snapshot at exit")
	listen := flag.String("listen", "", "serve obs diagnostics (/metrics, /debug/pprof) on this address")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of logfmt-style text")
	quiet := flag.Bool("quiet", false, "disable logging")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "psmegw: -backends is required")
		os.Exit(2)
	}

	observer, flush, err := obs.Setup(*traceOut, *metricsOut, *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psmegw:", err)
		os.Exit(1)
	}
	if observer == nil {
		// No sinks configured: keep the metrics, but no tracer — nothing
		// could ever read its events.
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

	gw, err := gateway.New(gateway.Config{
		Backends:       urls,
		HealthInterval: *healthInterval,
		FailThreshold:  *failThreshold,
		RestoreWait:    *restoreWait,
		Obs:            observer,
		Log:            logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "psmegw:", err)
		os.Exit(2)
	}
	hs := &http.Server{Addr: *addr, Handler: gw.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, ";; psmegw: routing %d backends on %s\n", len(urls), *addr)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "psmegw:", err)
		flush()
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, ";; psmegw: %v: shutting down\n", sig)
	}
	hs.Close()
	gw.Close()
	if err := flush(); err != nil {
		fmt.Fprintln(os.Stderr, "psmegw: flush:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, ";; psmegw: exiting")
}
