// Package gateway is the shard router in front of a fleet of psmed
// backends (DESIGN §10). It places sessions on backends by rendezvous
// hashing, proxies the serve HTTP/JSON API unchanged, health-checks the
// fleet, and on backend loss restores the dead backend's sessions onto
// survivors from their durable image+WAL (the fleet shares one data
// directory). Clients see at most a brief 503 window with a Retry-After
// hint; a request retried with its Seq is answered exactly once.
package gateway

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soarpsme/internal/obs"
	"soarpsme/internal/serve"
)

// Config configures a Gateway.
type Config struct {
	// Backends are the base URLs of the psmed fleet (e.g.
	// "http://127.0.0.1:8741"). All backends must share one -data
	// directory for failover restores to work.
	Backends []string
	// HealthInterval is the probe period (default 250ms).
	HealthInterval time.Duration
	// FailThreshold is the consecutive probe failures that declare a
	// backend dead (default 3). A proxy-level transport error counts as
	// an immediate declaration: the connection is gone, not slow.
	FailThreshold int
	// RestoreWait bounds how long a proxied request waits for an
	// in-flight failover restore of its session (default 30s).
	RestoreWait time.Duration
	Client      *http.Client
	Obs         *obs.Observer
	Log         *slog.Logger
}

type backend struct {
	url   string
	alive bool
	fails int
}

// Gateway is the router. Create with New, serve Handler, stop with Close.
type Gateway struct {
	cfg    Config
	client *http.Client

	mu        sync.Mutex
	backends  []*backend
	owner     map[string]*backend      // session id -> current placement
	restoring map[string]chan struct{} // closed when the failover restore settles
	nextID    uint64
	reqSeq    atomic.Uint64

	quit chan struct{}
	done chan struct{}

	mRequests   *obs.Counter
	mErrors     *obs.Counter
	mFailovers  *obs.Counter
	mRestored   *obs.Counter
	mRestoreErr *obs.Counter
	mAlive      *obs.Gauge
}

// New builds a gateway over the given backends (all initially presumed
// alive) and starts the health loop.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 250 * time.Millisecond
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.RestoreWait <= 0 {
		cfg.RestoreWait = 30 * time.Second
	}
	g := &Gateway{
		cfg:       cfg,
		client:    cfg.Client,
		owner:     map[string]*backend{},
		restoring: map[string]chan struct{}{},
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if g.client == nil {
		g.client = &http.Client{Timeout: 60 * time.Second}
	}
	for _, u := range cfg.Backends {
		g.backends = append(g.backends, &backend{url: strings.TrimRight(u, "/"), alive: true})
	}
	if o := cfg.Obs; o != nil {
		g.mRequests = o.Counter("gateway_requests_total")
		g.mErrors = o.Counter("gateway_backend_errors_total")
		g.mFailovers = o.Counter("gateway_failovers_total")
		g.mRestored = o.Counter("gateway_sessions_restored_total")
		g.mRestoreErr = o.Counter("gateway_restore_failures_total")
		g.mAlive = o.Gauge("gateway_backends_alive")
	}
	g.mAlive.Set(float64(len(g.backends)))
	go g.healthLoop()
	return g, nil
}

// Close stops the health loop.
func (g *Gateway) Close() {
	close(g.quit)
	<-g.done
}

// place picks the rendezvous-hash winner for id among alive backends:
// each (id, backend) pair scores independently, so a backend's death
// moves only that backend's sessions. Caller holds g.mu.
func (g *Gateway) place(id string) *backend {
	var best *backend
	var bestScore uint64
	for _, b := range g.backends {
		if !b.alive {
			continue
		}
		h := fnv.New64a()
		io.WriteString(h, id)
		io.WriteString(h, "|")
		io.WriteString(h, b.url)
		if s := h.Sum64(); best == nil || s > bestScore {
			best, bestScore = b, s
		}
	}
	return best
}

// route resolves the backend serving id, waiting out an in-flight
// failover restore first.
func (g *Gateway) route(id string) (*backend, error) {
	deadline := time.Now().Add(g.cfg.RestoreWait)
	for {
		g.mu.Lock()
		ch := g.restoring[id]
		if ch == nil {
			b := g.owner[id]
			if b == nil || !b.alive {
				b = g.place(id)
				if b != nil {
					g.owner[id] = b
				}
			}
			g.mu.Unlock()
			if b == nil {
				return nil, fmt.Errorf("gateway: no alive backend")
			}
			return b, nil
		}
		g.mu.Unlock()
		select {
		case <-ch:
		case <-time.After(time.Until(deadline)):
			return nil, fmt.Errorf("gateway: restore of session %s still in flight", id)
		}
	}
}

// ---- health & failover ----

func (g *Gateway) healthLoop() {
	defer close(g.done)
	t := time.NewTicker(g.cfg.HealthInterval)
	defer t.Stop()
	probe := &http.Client{Timeout: g.cfg.HealthInterval * 2}
	for {
		select {
		case <-g.quit:
			return
		case <-t.C:
		}
		g.mu.Lock()
		targets := append([]*backend(nil), g.backends...)
		g.mu.Unlock()
		for _, b := range targets {
			resp, err := probe.Get(b.url + "/healthz")
			ok := err == nil && resp.StatusCode < 500
			if resp != nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			g.mu.Lock()
			switch {
			case ok && !b.alive:
				// A revived URL is a fresh empty process (the dead one was
				// killed); it may host new placements again. Sessions that
				// failed over keep their owner entry on the survivor.
				b.alive, b.fails = true, 0
				g.setAlive()
				g.mu.Unlock()
				g.logInfo("backend revived", "backend", b.url)
			case ok:
				b.fails = 0
				g.mu.Unlock()
			case !ok && b.alive:
				b.fails++
				if b.fails >= g.cfg.FailThreshold {
					g.failOverLocked(b) // unlocks
				} else {
					g.mu.Unlock()
				}
			default:
				g.mu.Unlock()
			}
		}
	}
}

// noteTransportError reacts to a proxy-level connection failure: the
// backend is declared dead immediately and its sessions scheduled for
// restore. Requests racing the failover get 503 + Retry-After.
func (g *Gateway) noteTransportError(b *backend) {
	g.mu.Lock()
	if !b.alive {
		g.mu.Unlock()
		return
	}
	g.failOverLocked(b) // unlocks
}

// failOverLocked marks b dead and kicks off restores of its sessions on
// their new rendezvous owners. Called with g.mu held; releases it.
func (g *Gateway) failOverLocked(dead *backend) {
	dead.alive = false
	g.setAlive()
	g.mFailovers.Inc()
	type move struct {
		id string
		to *backend
	}
	var moves []move
	for id, b := range g.owner {
		if b != dead {
			continue
		}
		to := g.place(id)
		if to == nil {
			delete(g.owner, id) // no fleet left; next request reports it
			continue
		}
		g.owner[id] = to
		ch := make(chan struct{})
		g.restoring[id] = ch
		moves = append(moves, move{id, to})
	}
	g.mu.Unlock()
	g.logInfo("backend lost, failing over", "backend", dead.url, "sessions", len(moves))

	for _, mv := range moves {
		go func(id string, to *backend) {
			defer func() {
				g.mu.Lock()
				ch := g.restoring[id]
				delete(g.restoring, id)
				g.mu.Unlock()
				if ch != nil {
					close(ch)
				}
			}()
			resp, err := g.client.Post(to.url+"/sessions/"+id+"/restore", "application/json", nil)
			if err != nil {
				g.mRestoreErr.Inc()
				g.logError("failover restore failed", "session", id, "backend", to.url, "err", err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			// 409 "is live" means the session already runs on the survivor
			// (e.g. a previous failover landed it there): routing is
			// correct, nothing to restore.
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
				g.mRestoreErr.Inc()
				g.logError("failover restore failed", "session", id, "backend", to.url,
					"status", resp.StatusCode, "body", strings.TrimSpace(string(body)))
				return
			}
			if resp.StatusCode == http.StatusOK {
				g.mRestored.Inc()
			}
			var rr serve.RestoreResult
			if json.Unmarshal(body, &rr) == nil {
				// image=warm means the survivor already had the program's
				// topology compiled: the whole failover wave pays one
				// compile per distinct program, not one per session.
				temp := "cold"
				if rr.CacheHit {
					temp = "warm"
				}
				g.logInfo("session restored", "session", id, "backend", to.url,
					"cycles", rr.Cycles, "replayed", rr.Replayed, "image", temp)
			}
		}(mv.id, mv.to)
	}
}

// setAlive refreshes the alive gauge; caller holds g.mu.
func (g *Gateway) setAlive() {
	n := 0
	for _, b := range g.backends {
		if b.alive {
			n++
		}
	}
	g.mAlive.Set(float64(n))
}

func (g *Gateway) logInfo(msg string, kv ...any) {
	if g.cfg.Log != nil {
		g.cfg.Log.Info(msg, kv...)
	}
}

func (g *Gateway) logError(msg string, kv ...any) {
	if g.cfg.Log != nil {
		g.cfg.Log.Error(msg, kv...)
	}
}

// ---- HTTP ----

// Handler returns the gateway's HTTP handler: the serve API surface,
// proxied.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("POST /sessions", g.handleCreate)
	mux.HandleFunc("/sessions/{id}", g.handleSession)
	mux.HandleFunc("/sessions/{id}/{verb}", g.handleSession)
	mux.HandleFunc("/sessions/{id}/{verb}/{rest...}", g.handleSession)
	return mux
}

type healthStatus struct {
	OK       bool            `json:"ok"`
	Backends map[string]bool `json:"backends"`
	Sessions int             `json:"sessions"`
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	st := healthStatus{Backends: map[string]bool{}, Sessions: len(g.owner)}
	for _, b := range g.backends {
		st.Backends[b.url] = b.alive
		st.OK = st.OK || b.alive
	}
	g.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if !st.OK {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(st)
}

// handleCreate assigns a cluster-unique id when the client didn't pick
// one, so placement is deterministic before the session exists anywhere.
func (g *Gateway) handleCreate(w http.ResponseWriter, r *http.Request) {
	g.mRequests.Inc()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req serve.CreateRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	if req.ID == "" {
		g.mu.Lock()
		g.nextID++
		req.ID = fmt.Sprintf("g%d", g.nextID)
		g.mu.Unlock()
	}
	body, err = json.Marshal(&req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b, err := g.route(req.ID)
	if err != nil {
		g.unavailable(w, err)
		return
	}
	status := g.proxy(w, r, b, "/sessions", body)
	if status == http.StatusCreated {
		g.mu.Lock()
		g.owner[req.ID] = b
		g.mu.Unlock()
	}
}

func (g *Gateway) handleSession(w http.ResponseWriter, r *http.Request) {
	g.mRequests.Inc()
	id := r.PathValue("id")
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	b, err := g.route(id)
	if err != nil {
		g.unavailable(w, err)
		return
	}
	status := g.proxy(w, r, b, r.URL.Path, body)
	if r.Method == http.MethodDelete && status == http.StatusOK {
		g.mu.Lock()
		delete(g.owner, id)
		g.mu.Unlock()
	}
}

// proxy forwards the request to b and copies the response back. A
// transport error declares b dead (triggering failover of its sessions)
// and answers 503 with a Retry-After hint; the client's retry routes to
// the session's new owner. Returns the upstream status, or 0 on
// transport error.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, b *backend, path string, body []byte) int {
	req, err := http.NewRequest(r.Method, b.url+path, strings.NewReader(string(body)))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return 0
	}
	// One id names the request here and at the backend, which puts it in
	// its log line and error bodies.
	reqID := serve.InboundRequestID(r)
	if reqID == "" {
		reqID = fmt.Sprintf("gw%06d", g.reqSeq.Add(1))
	}
	req.Header.Set("X-Request-ID", reqID)
	w.Header().Set("X-Request-ID", reqID)
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	} else if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.mErrors.Inc()
		g.noteTransportError(b)
		g.unavailable(w, fmt.Errorf("backend %s: %v", b.url, err))
		return 0
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return resp.StatusCode
}

func (g *Gateway) unavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	http.Error(w, err.Error(), http.StatusServiceUnavailable)
}
