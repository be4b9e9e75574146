package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// server is a running diagnostics server.
type server struct {
	srv *http.Server
	ln  net.Listener
	// closeTimeout bounds how long Close waits for in-flight requests
	// before force-closing connections.
	closeTimeout time.Duration
}

// serve starts the diagnostics server on addr (e.g. ":6060"; ":0" picks a
// free port) and serves in the background until Close: /metrics
// (Prometheus text exposition of reg) and the standard /debug/pprof
// endpoints.
func serve(addr string, reg *Registry) (*server, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "soarpsme diagnostics\n\n"+
			"/metrics            Prometheus text exposition\n"+
			"/debug/pprof/       Go runtime profiles\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteText(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return serveHandler(addr, mux)
}

// serveHandler starts a server with an arbitrary handler; tests use it to
// inject slow handlers when exercising the graceful-close path.
func serveHandler(addr string, h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, ln: ln, closeTimeout: 5 * time.Second}
	go s.srv.Serve(ln)
	return s, nil
}

// addr returns the bound listen address.
func (s *server) addr() string { return s.ln.Addr().String() }

// Close shuts the server down gracefully: it stops accepting connections
// and waits up to closeTimeout (5 s) for in-flight requests — a /metrics
// scrape or a profile download mid-transfer — to finish, then force-closes
// whatever remains.
func (s *server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.closeTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}
