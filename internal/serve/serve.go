// Package serve is the multi-session match service: one process hosting
// many independent engine sessions behind an HTTP/JSON API, the serving
// layer the ROADMAP's production-scale goal calls for. Sessions run either
// a named task from internal/tasks (currently cypress, the chunk-heavy
// synthetic workload) or an uploaded OPS5 program.
//
// Concurrency model: a session is an engine behind a lock. A request runs on
// the goroutine that received it, holding the session's one-slot turn, so
// each engine is driven strictly serially, while all sessions share one
// global prun.Budget — S sessions share the worker pool instead of each
// spawning Processes workers. Admission per session is a bounded number of
// slots: with none free a request fails fast with 429 + Retry-After
// (backpressure) rather than queueing unboundedly. The server's deadline arms
// every session runtime's cycle watchdog, so a wedged parallel cycle degrades
// through the serial fallback instead of hanging the connection. Drain
// (SIGTERM) stops admitting work, finishes everything already accepted, and
// exits cleanly.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soarpsme/internal/engine"
	"soarpsme/internal/fault"
	"soarpsme/internal/matchprof"
	"soarpsme/internal/obs"
	"soarpsme/internal/prun"
	"soarpsme/internal/tasks/cypress"
)

// Config sizes the service.
type Config struct {
	// Workers caps the shared match-worker budget across all sessions
	// (0 = GOMAXPROCS).
	Workers int
	// Processes is the per-session worker width a cycle asks the budget
	// for (0 = 4).
	Processes int
	// Policy is every session's scheduling policy.
	Policy prun.Policy
	// QueueDepth bounds how many requests may wait on one session behind
	// the one that is running (0 = 4).
	QueueDepth int
	// MaxSessions bounds concurrent sessions (0 = 64).
	MaxSessions int
	// Deadline is every session's per-cycle watchdog deadline (0 = off).
	Deadline time.Duration
	// Obs receives service metrics (nil disables instrumentation).
	Obs *obs.Observer
	// Log receives structured request logs (nil disables request logging).
	// Every request line carries the request ID echoed in the X-Request-ID
	// header and in error bodies.
	Log *slog.Logger
	// Prof configures per-session match profiling. Profiling is always on
	// in the serving path (the /debug/match endpoints depend on it); nil
	// uses matchprof defaults.
	Prof *matchprof.Options
	// Fault, when non-nil, injects scheduled faults into every session's
	// match workers (the daemon's -fault-seed flag); failed cycles recover
	// through the serial fallback and trip the flight recorder.
	Fault *fault.Injector
	// DataDir, when set, makes sessions durable: each owns <data>/<id>/
	// with a checksummed snapshot plus a write-ahead delta journal, and
	// can be restored (on this server or any other sharing the directory)
	// via POST /sessions/{id}/restore. See durable.go.
	DataDir string
}

// Server hosts the sessions and their shared worker budget.
type Server struct {
	cfg    Config
	budget *prun.Budget
	// images caches compiled program topologies by canonical program hash:
	// every session of one program shares a single immutable rete graph,
	// so creates and failover restores past the first pay no compile.
	images *engine.ImageCache

	mu       sync.Mutex
	sessions map[string]*session
	// restoring holds the ids reserved for a create or a restore in flight:
	// they count against MaxSessions, and a second create or restore of one
	// fails with 409 instead of racing (reserve, adopt).
	restoring map[string]bool
	nextID    int

	draining atomic.Bool
	reqSeq   atomic.Int64

	// testHookReserved, nil outside tests, runs once in every create and
	// restore between reserve and adopt: a test panics from it to prove the
	// reservation is given back when a build does.
	testHookReserved func()

	mSessions      *obs.Gauge
	mRequests      *obs.Counter
	mCycles        *obs.Counter
	mRejected      *obs.Counter
	mLatency       *obs.Histogram
	mSnapshots     *obs.Counter
	mSnapBytes     *obs.Counter
	mRestored      *obs.Counter
	mRestoreFailed *obs.Counter
	mRestoreSecs   *obs.Histogram
	mReplayed      *obs.Counter
	mWALAppends    *obs.Counter
	mWALBytes      *obs.Counter
	mWALFsync      *obs.Histogram
	mImgHits       *obs.Counter
	mImgMisses     *obs.Counter
	mImgLive       *obs.Gauge
}

// New builds a server with an empty session table.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Processes <= 0 {
		cfg.Processes = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	if cfg.Prof == nil {
		cfg.Prof = &matchprof.Options{}
	}
	s := &Server{
		cfg:       cfg,
		budget:    prun.NewBudget(cfg.Workers),
		images:    engine.NewImageCache(),
		sessions:  map[string]*session{},
		restoring: map[string]bool{},
	}
	if o := cfg.Obs; o != nil {
		s.mSessions = o.Gauge("sessions_active")
		s.mRequests = o.Counter("serve_requests_total")
		s.mCycles = o.Counter("serve_cycles_total")
		s.mRejected = o.Counter("serve_backpressure_rejections_total")
		s.mLatency = o.Histogram("serve_request_seconds")
		s.mSnapshots = o.Counter("serve_snapshots_total")
		s.mSnapBytes = o.Counter("serve_snapshot_bytes_total")
		s.mRestored = o.Counter("serve_sessions_restored_total")
		s.mRestoreFailed = o.Counter("serve_restore_failures_total")
		s.mRestoreSecs = o.Histogram("serve_restore_seconds")
		s.mReplayed = o.Counter("serve_wal_records_replayed_total")
		s.mWALAppends = o.Counter("serve_wal_appends_total")
		s.mWALBytes = o.Counter("serve_wal_bytes_total")
		s.mWALFsync = o.Histogram("serve_wal_fsync_seconds")
		s.mImgHits = o.Counter("rete_image_cache_hits_total")
		s.mImgMisses = o.Counter("rete_image_cache_misses_total")
		s.mImgLive = o.Gauge("rete_images_live")
	}
	return s
}

// Budget exposes the shared worker budget (tests assert its cap).
func (s *Server) Budget() *prun.Budget { return s.budget }

// Drain stops admitting new requests: everything after this call gets 503,
// while requests already inside handlers run to completion. Call before
// http.Server.Shutdown so the listener drains instead of racing new work.
func (s *Server) Drain() { s.draining.Store(true) }

// Close retires every session, letting each finish the requests it has
// already admitted (cycles are never dropped), and blocks until all have.
// Durable sessions are drained to a final snapshot, leaving an empty WAL
// behind: a restore after a clean shutdown replays nothing. Call after the
// HTTP server has shut down.
func (s *Server) Close() {
	s.Drain()
	for _, ss := range s.live() {
		s.retire(ss, false)
	}
}

// live returns the sessions in the table.
func (s *Server) live() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	all := make([]*session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		all = append(all, ss)
	}
	return all
}

// reserve claims a session id before any work is done for it — load is shed
// at the edge, not after a compile. The id, picked here when empty, goes into
// the restoring set until adopt makes the session live or unreserve gives it
// up. A refusal is (status, error) like restoreSession's: a create gets 429 at
// MaxSessions, counted over live sessions and reservations alike (a restore
// does not: a failover must be able to re-home sessions onto a full
// survivor), and either gets 409 when the id is live or reserved.
func (s *Server) reserve(id string, create bool) (string, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if create && len(s.sessions)+len(s.restoring) >= s.cfg.MaxSessions {
		return "", http.StatusTooManyRequests, fmt.Errorf("session limit %d reached", s.cfg.MaxSessions)
	}
	if id == "" {
		for id == "" || s.sessions[id] != nil || s.restoring[id] {
			s.nextID++
			id = fmt.Sprintf("s%d", s.nextID)
		}
	}
	switch {
	case s.sessions[id] != nil:
		return "", http.StatusConflict, fmt.Errorf("session %s is live", id)
	case s.restoring[id]:
		return "", http.StatusConflict, fmt.Errorf("session %s create or restore already in progress", id)
	}
	s.restoring[id] = true
	return id, 0, nil
}

func (s *Server) unreserve(id string) {
	s.mu.Lock()
	delete(s.restoring, id)
	s.mu.Unlock()
}

// adopt makes a session live under the id reserved for it.
func (s *Server) adopt(ss *session) {
	s.mu.Lock()
	delete(s.restoring, ss.id)
	s.sessions[ss.id] = ss
	s.mSessions.Set(float64(len(s.sessions)))
	s.mu.Unlock()
	ss.eng.Prof.SetSession(ss.id)
}

// retire takes a session out of service and gives back what it holds, once:
// of DELETE racing Close the first caller does the work and the other waits
// until all of it is done. The journal is closed last, after the drain
// snapshot that empties it — taken unless the state is about to be erased, or
// the session is broken and what is on disk is the only good copy. Erasing
// is outside the once: a DELETE that lost the race to Close still removes
// the directory Close kept.
func (s *Server) retire(ss *session, erase bool) {
	var err error
	ss.retired.Do(func() {
		ss.shutdown()
		s.releaseEngine(ss.eng)
		if ss.store != nil && !erase && !ss.broken {
			_, err = ss.saveSnapshot()
		}
		ss.store.close()
	})
	if erase && ss.store != nil {
		err = os.RemoveAll(ss.store.dir)
	}
	if err != nil && s.cfg.Log != nil {
		s.cfg.Log.Error("retiring durable state", "session", ss.id, "erase", erase, "err", err)
	}
}

// ---- wire types ----

// CreateRequest creates a session. Unknown fields are ignored, among them
// "policy", "processes" and "deadline", which session images written before
// the server fixed every session's policy, width and deadline still carry.
type CreateRequest struct {
	// ID requests a specific session id (letters, digits, ".", "_", "-";
	// 409 if taken). Servers sharing a data directory pick ids
	// independently, so a client that may fail a session over to another
	// one names it here; empty lets the server pick one.
	ID string `json:"id,omitempty"`
	// Task names a server-side workload ("cypress"); empty with Program
	// set uploads an OPS5 program instead.
	Task string `json:"task,omitempty"`
	// Params sizes a cypress task (all fields optional).
	Params *cypress.Params `json:"params,omitempty"`
	// Program is OPS5 source for an uploaded-program session.
	Program string `json:"program,omitempty"`
}

// CreateResult answers a session creation.
type CreateResult struct {
	ID          string `json:"id"`
	Task        string `json:"task"`
	Productions int    `json:"productions"`
}

// RunRequest runs match cycles on a session. Unknown fields are ignored,
// among them "deadline", which WAL records written before the server fixed
// every session's deadline may carry.
type RunRequest struct {
	Cycles int `json:"cycles"`
	// Seq is an optional per-session idempotency sequence number. A
	// request retried with the Seq of the last executed request returns
	// the cached result instead of re-running — including after a
	// failover restore, because the watermark rides in the WAL and the
	// snapshot — so client retries are exactly-once.
	Seq int64 `json:"seq,omitempty"`
	// Chunking enables the cypress chunk schedule (AddProductionRuntime
	// mid-stream); ignored for program sessions.
	Chunking bool `json:"chunking,omitempty"`
	// Deltas, when present, is a wme-change batch ingested as ONE match
	// cycle — alpha dispatch over the whole batch before beta execution —
	// ahead of the Cycles recognize-act steps. Program sessions only. With
	// a batch present Cycles may be 0 (ingest-only request).
	Deltas []DeltaJSON `json:"deltas,omitempty"`
}

// RunResult reports a batch of cycles. FirstCycle/LastCycle are the
// session's cycle indices the batch covered, so log lines and flight dumps
// can be correlated with a specific request.
type RunResult struct {
	Cycles     int  `json:"cycles"`
	FirstCycle int  `json:"first_cycle"`
	LastCycle  int  `json:"last_cycle"`
	Fired      int  `json:"fired,omitempty"`
	Tasks      int  `json:"tasks"`
	Failed     int  `json:"failed"`
	Recovered  int  `json:"recovered"`
	Quiesced   bool `json:"quiesced,omitempty"`
	// Added lists the server-assigned wme ids for the adds in the request's
	// Deltas batch, in batch order; later removes reference them.
	Added        []uint64 `json:"added,omitempty"`
	BadDeltas    int      `json:"bad_deltas,omitempty"`
	Fingerprints []string `json:"fingerprints"`
	// Cached marks an idempotent replay: the request's Seq matched the
	// last executed request, so this is its cached result and no cycles
	// ran now.
	Cached bool `json:"cached,omitempty"`
}

// DeltaJSON is one wire-format wme change: adds carry class+fields (string
// = symbol, number, null), removes reference a previously returned wme id.
type DeltaJSON struct {
	Op     string `json:"op"`
	Class  string `json:"class,omitempty"`
	Fields []any  `json:"fields,omitempty"`
	ID     uint64 `json:"id,omitempty"`
}

// sessionInfo is a session stats snapshot.
type sessionInfo struct {
	ID        string `json:"id"`
	Task      string `json:"task"`
	Created   string `json:"created"`
	Cycles    int    `json:"cycles"`
	Fired     int    `json:"fired"`
	WM        int    `json:"wm"`
	Conflict  int    `json:"conflict_set"`
	BadDeltas int    `json:"bad_deltas"`
	Recovered int    `json:"recovered_cycles"`
	Chunks    int    `json:"chunks"`
}

// instJSON is one conflict-set instantiation on the wire.
type instJSON struct {
	Production string   `json:"production"`
	TimeTags   []uint64 `json:"timetags"`
}

type errJSON struct {
	Error string `json:"error"`
	// RequestID echoes the request's X-Request-ID so a 429/503 can be
	// correlated with the request log next to its Retry-After.
	RequestID string `json:"request_id,omitempty"`
}

// ---- handlers ----

// Handler returns the service mux wrapped in the admission middleware,
// which gives every request an ID — the well-formed X-Request-ID it arrived
// with, else one minted here — echoed in the X-Request-ID header and in
// error bodies, emits one structured log line per request, and refuses
// everything but /healthz while draining.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("POST /sessions", s.handleCreate)
	mux.HandleFunc("GET /sessions", s.handleList)
	mux.HandleFunc("GET /sessions/{id}", s.handleStats)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleDelete)
	mux.HandleFunc("POST /sessions/{id}/run", s.handleRun)
	mux.HandleFunc("POST /sessions/{id}/snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /sessions/{id}/restore", s.handleRestore)
	mux.HandleFunc("GET /sessions/{id}/conflict-set", s.handleConflictSet)
	mux.HandleFunc("GET /sessions/{id}/audit", s.handleAudit)
	mux.HandleFunc("GET /debug/match", s.handleDebugMatch)
	mux.HandleFunc("GET /debug/match/flight", s.handleDebugFlight)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mRequests.Inc()
		reqID := inboundRequestID(r)
		if reqID == "" {
			reqID = fmt.Sprintf("r%06d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", reqID)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			d := time.Since(start)
			s.mLatency.Observe(d.Seconds())
			if s.cfg.Log != nil {
				s.cfg.Log.Info("request",
					"req", reqID, "method", r.Method, "path", r.URL.Path,
					"session", sessionFromPath(r.URL.Path), "status", sw.code(), "bytes", sw.bytes, "dur", d)
			}
		}()
		// /healthz stays reachable during drain so orchestration can watch
		// the shutdown; everything else is refused up front.
		if s.draining.Load() && r.URL.Path != "/healthz" {
			sw.Header().Set("Connection", "close")
			writeErr(sw, http.StatusServiceUnavailable, "draining")
			return
		}
		mux.ServeHTTP(sw, r)
	})
}

// statusWriter captures the response status and size for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(c int) {
	if w.status == 0 {
		w.status = c
	}
	w.ResponseWriter.WriteHeader(c)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

func (w *statusWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// sessionFromPath extracts the session ID from a /sessions/{id}... path
// ("" for non-session requests), so log lines carry it without re-routing.
func sessionFromPath(path string) string {
	const pfx = "/sessions/"
	if !strings.HasPrefix(path, pfx) {
		return ""
	}
	rest := path[len(pfx):]
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errJSON{Error: fmt.Sprintf(format, args...), RequestID: w.Header().Get("X-Request-ID")})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok": true, "sessions": n, "draining": s.draining.Load(), "workers": s.budget.Cap(),
	})
}

// engineConfig is every session engine's configuration, created or restored:
// the server's width, policy and deadline over its shared budget.
func (s *Server) engineConfig() engine.Config {
	ecfg := engine.DefaultConfig()
	ecfg.Processes = s.cfg.Processes
	ecfg.Policy = s.cfg.Policy
	ecfg.Deadline = s.cfg.Deadline
	ecfg.Budget = s.budget
	ecfg.Obs = s.cfg.Obs
	ecfg.Prof = s.cfg.Prof
	ecfg.Fault = s.cfg.Fault
	return ecfg
}

// imageEngine stamps out a session engine over the shared compiled image
// for src — compiling the program only if no session has used it before —
// and runs its startup actions. The engine holds a cache reference;
// releaseEngine returns it.
func (s *Server) imageEngine(src string) (*engine.Engine, error) {
	ecfg := s.engineConfig()
	img, hit, err := s.images.Get(src, ecfg.Rete)
	if err != nil {
		return nil, err
	}
	s.noteCacheLookup(hit)
	eng := engine.NewFromImage(img, ecfg)
	if err := eng.RunStartup(); err != nil {
		s.releaseEngine(eng)
		return nil, err
	}
	return eng, nil
}

// noteCacheLookup mirrors one image-cache lookup into the service metrics.
func (s *Server) noteCacheLookup(hit bool) {
	if hit {
		s.mImgHits.Inc()
	} else {
		s.mImgMisses.Inc()
	}
	if s.mImgLive != nil {
		s.mImgLive.Set(float64(s.images.Stats().Live))
	}
}

// releaseEngine gives back what a session engine holds of the server's:
// its contribution to the contention counters is harvested and its scrape
// hook unregistered (engine.Close), and its shared-image reference is
// returned. The engine must be quiescent — its session has been shut down,
// or never went live.
func (s *Server) releaseEngine(eng *engine.Engine) {
	eng.Close()
	s.images.Release(eng.Image())
}

// ImageCacheStats exposes the compiled-image cache counters (tests and
// /debug/match read them).
func (s *Server) ImageCacheStats() engine.CacheStats { return s.images.Stats() }

// validSessionID accepts ids that are safe as path segments and
// directory names: letters, digits, ".", "_", "-", not starting with a
// dot, at most 64 bytes.
func validSessionID(id string) bool {
	if id == "" || len(id) > 64 || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// inboundRequestID returns the X-Request-ID r arrived with when it obeys the
// session-id rule, "" otherwise: the header is outside input that ends up in
// log lines and error bodies, so on "" the handler mints its
// own and every request line and error body still names its request. The
// key is in net/http's canonical spelling, so the lookup is a plain map
// read.
func inboundRequestID(r *http.Request) string {
	if v := r.Header["X-Request-Id"]; len(v) > 0 && validSessionID(v[0]) {
		return v[0]
	}
	return ""
}

// maxCypressSize bounds every field of a cypress create's params, and the
// condition elements they multiply out to (task productions and chunks
// together): about fifteen times the paper-matched default.
const maxCypressSize = 100000

// checkCypressParams refuses the params cypress.Generate is not defined for
// — a negative size, or an AvgCEs of 1, which leaves the generator's
// shared-prefix draw nothing to draw from — and those large enough to be a
// denial of service on their own. Zero fields take the defaults, as in
// Generate.
func checkCypressParams(req *CreateRequest) error {
	p := req.Params
	if req.Task != "cypress" || p == nil {
		return nil
	}
	d := cypress.DefaultParams()
	v := [...]int64{int64(p.Productions), int64(p.AvgCEs), int64(p.Chunks), int64(p.ChunkCEs), int64(p.Alphabet), int64(p.Cycles)}
	for i, def := range [...]int{d.Productions, d.AvgCEs, d.Chunks, d.ChunkCEs, d.Alphabet, d.Cycles} {
		if v[i] == 0 {
			v[i] = int64(def)
		}
		if v[i] < 0 || v[i] > maxCypressSize {
			return fmt.Errorf("cypress params: every size must be in [0, %d] (0 = default)", maxCypressSize)
		}
	}
	if n, avg, chunks, cces := v[0], v[1], v[2], v[3]; avg < 2 || n*avg+chunks*cces > maxCypressSize {
		return fmt.Errorf("cypress params: need AvgCEs >= 2 (got %d) and Productions×AvgCEs + Chunks×ChunkCEs <= %d condition elements (got %d)", avg, maxCypressSize, n*avg+chunks*cces)
	}
	return nil
}

// cypressSystem generates the workload a cypress create request describes
// (nil for a program session), the same at create and at restore.
func cypressSystem(req *CreateRequest) *cypress.System {
	if req.Task != "cypress" {
		return nil
	}
	var p cypress.Params
	if req.Params != nil {
		p = *req.Params
	}
	return cypress.Generate(p)
}

// maxRequestBody bounds a create or run body. The largest that any test,
// CI step, psmeload run or benchmark workload sends is 2,823 bytes. A
// durable session can still refuse a smaller /run whose journal line would
// pass maxWALLine.
const maxRequestBody = 32 << 20

// decodeBody decodes r's JSON body into v. It answers 413 for a body over
// maxRequestBody and 400 for malformed JSON, and reports whether v holds
// the request.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v)
	if err == nil {
		return true
	}
	// Declared only here: errors.As takes its address, which moves it to
	// the heap, and the success path should not pay for that.
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", maxRequestBody)
	} else {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.ID != "" && !validSessionID(req.ID) {
		writeErr(w, http.StatusBadRequest, "bad session id %q", req.ID)
		return
	}
	if err := checkCypressParams(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch {
	case req.Task == "cypress", req.Task == "" && req.Program != "":
	case req.Task != "":
		writeErr(w, http.StatusBadRequest, "unknown task %q (available: cypress, or upload an OPS5 program)", req.Task)
		return
	default:
		writeErr(w, http.StatusBadRequest, "need task or program")
		return
	}

	id, code, err := s.reserve(req.ID, true)
	if err != nil {
		if code == http.StatusTooManyRequests {
			s.mRejected.Inc()
			w.Header().Set("Retry-After", retryAfterHint(1, s.budgetFrac()))
		}
		writeErr(w, code, "%v", err)
		return
	}
	req.ID = id
	// Deferred, so that a panic below (net/http recovers it) gives the id back
	// as a failure does, not holds it and a place under the limit for good.
	adopted := false
	defer func() {
		if !adopted {
			s.unreserve(id)
		}
	}()
	if s.testHookReserved != nil {
		s.testHookReserved()
	}
	sys := cypressSystem(&req)
	src, what := req.Program, "program"
	if sys != nil {
		src, what = sys.Source, "cypress program"
	}
	eng, err := s.imageEngine(src)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%s: %v", what, err)
		return
	}
	ss := s.newSession(req, sys, eng)
	prods := 0
	if sys != nil {
		ss.drv = cypress.NewDriver(sys, eng.Tab, eng.WM)
		prods = sys.Params.Productions
	}
	// The genesis snapshot is written before the session goes live: a
	// session a client has seen always has an image on disk a survivor can
	// restore.
	if s.cfg.DataDir != "" {
		if err := s.persistCreate(ss); err != nil {
			s.releaseEngine(eng)
			writeErr(w, http.StatusInternalServerError, "persisting session: %v", err)
			return
		}
	}
	s.adopt(ss)
	adopted = true
	if s.cfg.Log != nil {
		s.cfg.Log.Info("session created", "req", w.Header().Get("X-Request-ID"),
			"session", ss.id, "task", ss.task, "productions", prods)
	}

	writeJSON(w, http.StatusCreated, CreateResult{ID: ss.id, Task: ss.task, Productions: prods})
}

// session looks a live session up, answering 404 itself when there is none.
func (s *Server) session(w http.ResponseWriter, id string) *session {
	s.mu.Lock()
	ss := s.sessions[id]
	s.mu.Unlock()
	if ss == nil {
		writeErr(w, http.StatusNotFound, "no session %q", id)
	}
	return ss
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	all := s.live()
	infos := make([]*sessionInfo, 0, len(all))
	for _, ss := range all {
		v, err := ss.submit(r.Context().Done(), func() (any, error) { return ss.stats(), nil })
		if err != nil {
			continue // busy or closing; listing is best-effort
		}
		infos = append(infos, v.(*sessionInfo))
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": infos})
}

// dispatch submits fn to the session and writes the reply, mapping
// backpressure to 429 + Retry-After.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, ss *session, fn func() (any, error)) {
	v, err := ss.submit(r.Context().Done(), fn)
	switch {
	case err == errBusy:
		s.mRejected.Inc()
		occupied := float64(len(ss.admit)) / float64(cap(ss.admit))
		w.Header().Set("Retry-After", retryAfterHint(occupied, s.budgetFrac()))
		writeErr(w, http.StatusTooManyRequests, "session %s queue full", ss.id)
	case err == errGone:
		writeErr(w, http.StatusGone, "session %s closed", ss.id)
	case errors.Is(err, errWALLineTooLong):
		writeErr(w, http.StatusRequestEntityTooLarge, "%v", err)
	case err != nil:
		writeErr(w, http.StatusBadRequest, "%v", err)
	default:
		writeJSON(w, http.StatusOK, v)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ss := s.session(w, r.PathValue("id"))
	if ss == nil {
		return
	}
	s.dispatch(w, r, ss, func() (any, error) { return ss.stats(), nil })
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	ss := s.session(w, r.PathValue("id"))
	if ss == nil {
		return
	}
	var req RunRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// A delta batch counts as the request's one guaranteed cycle, so
	// ingest-only requests may set cycles to 0.
	minCycles := 1
	if len(req.Deltas) > 0 {
		minCycles = 0
	}
	if req.Cycles < minCycles || req.Cycles > 100000 {
		writeErr(w, http.StatusBadRequest, "cycles must be in [%d, 100000]", minCycles)
		return
	}
	if req.Seq < 0 {
		writeErr(w, http.StatusBadRequest, "seq must be non-negative")
		return
	}
	s.dispatch(w, r, ss, func() (any, error) {
		res, err := ss.runLogged(&req)
		if res != nil && !res.Cached {
			s.mCycles.Add(uint64(res.Cycles))
			if s.cfg.Log != nil && res.Cycles > 0 {
				s.cfg.Log.Info("run", "req", w.Header().Get("X-Request-ID"),
					"session", ss.id, "cycles", res.Cycles,
					"first_cycle", res.FirstCycle, "last_cycle", res.LastCycle,
					"tasks", res.Tasks, "failed", res.Failed, "recovered", res.Recovered)
			}
		}
		return res, err
	})
}

// handleSnapshot forces a snapshot (and WAL truncation) under the session's
// turn, so it cannot race match cycles.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	ss := s.session(w, r.PathValue("id"))
	if ss == nil {
		return
	}
	s.dispatch(w, r, ss, func() (any, error) { return ss.saveSnapshot() })
}

// handleRestore rebuilds a session from its on-disk snapshot + WAL. A
// restore into a still-live session id is refused with 409: the live
// session owns the engine, and a second copy would race it (and fork the
// WAL).
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	res, code, err := s.restoreSession(r.PathValue("id"))
	if err != nil {
		writeErr(w, code, "restore: %v", err)
		return
	}
	writeJSON(w, code, res)
}

func (s *Server) handleConflictSet(w http.ResponseWriter, r *http.Request) {
	ss := s.session(w, r.PathValue("id"))
	if ss == nil {
		return
	}
	s.dispatch(w, r, ss, func() (any, error) {
		insts := ss.eng.CS.All()
		out := make([]instJSON, 0, len(insts))
		for _, in := range insts {
			tags := make([]uint64, len(in.WMEs))
			for i, wm := range in.WMEs {
				tags[i] = wm.TimeTag
			}
			out = append(out, instJSON{Production: in.Prod.Name, TimeTags: tags})
		}
		return map[string]any{"instantiations": out, "fingerprint": ss.fingerprint()}, nil
	})
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	ss := s.session(w, r.PathValue("id"))
	if ss == nil {
		return
	}
	s.dispatch(w, r, ss, func() (any, error) {
		if err := ss.eng.AuditInvariants(); err != nil {
			return map[string]any{"ok": false, "error": err.Error()}, nil
		}
		return map[string]any{"ok": true}, nil
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	ss := s.sessions[id]
	if ss != nil {
		delete(s.sessions, id)
		s.mSessions.Set(float64(len(s.sessions)))
	}
	s.mu.Unlock()
	if ss == nil {
		writeErr(w, http.StatusNotFound, "no session %q", id)
		return
	}
	s.retire(ss, true)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

// handleDebugMatch serves match-profiling snapshots: per-session tables
// plus the aggregate, or a single session with ?session=ID. Snapshots read
// atomic counters directly — no admission slot, no turn — so a scrape
// never queues behind (or backpressures) match work.
func (s *Server) handleDebugMatch(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("session"); id != "" {
		if ss := s.session(w, id); ss != nil {
			writeJSON(w, http.StatusOK, ss.eng.Prof.Snapshot())
		}
		return
	}
	all := s.live()
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	snaps := make([]*matchprof.Snapshot, 0, len(all))
	for _, ss := range all {
		if sn := ss.eng.Prof.Snapshot(); sn != nil {
			snaps = append(snaps, sn)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"sessions":    snaps,
		"aggregate":   matchprof.Merge(snaps),
		"image_cache": s.images.Stats(),
	})
}

// handleDebugFlight serves the most recent flight-recorder dump — for one
// session with ?session=ID, otherwise the newest across all sessions. 404
// until an anomaly has tripped a recorder.
func (s *Server) handleDebugFlight(w http.ResponseWriter, r *http.Request) {
	want := r.URL.Query().Get("session")
	var latest *matchprof.Dump
	var latestAt time.Time
	for _, ss := range s.live() {
		if want != "" && ss.id != want {
			continue
		}
		d := ss.eng.Prof.LastDump()
		if d == nil {
			continue
		}
		at, _ := time.Parse(time.RFC3339Nano, d.TrippedAt) // zero when malformed
		if latest == nil || at.After(latestAt) {
			latest, latestAt = d, at
		}
	}
	if latest == nil {
		writeErr(w, http.StatusNotFound, "no flight dump (no anomaly has tripped a recorder)")
		return
	}
	writeJSON(w, http.StatusOK, latest)
}

// retryAfterHint grades a 429's Retry-After by how loaded the rejecting
// resources are: each argument is a load fraction (admission slots taken,
// session-table fullness, shared-budget occupancy), and the hint scales
// linearly from 1s at idle to 8s at saturation on the worst of them. A
// saturated worker budget means admitted requests finish slowly, so a longer
// backoff keeps rejected clients from hammering a server that cannot free
// capacity quickly. The base is jittered ±20% (clamped to [1s, 8s]) so a
// burst of clients rejected together doesn't retry together: without
// jitter every 429 issued in the same instant readmits as a thundering
// herd that immediately re-saturates the queue it bounced off.
func retryAfterHint(fracs ...float64) string {
	load := 0.0
	for _, f := range fracs {
		if f > load {
			load = f
		}
	}
	if load > 1 {
		load = 1
	}
	if load < 0 {
		load = 0
	}
	base := 1 + 7*load
	jittered := base * (0.8 + 0.4*rand.Float64())
	secs := int(jittered + 0.5)
	if secs < 1 {
		secs = 1
	}
	if secs > 8 {
		secs = 8
	}
	return strconv.Itoa(secs)
}

// budgetFrac is the shared worker budget's current occupancy in [0, 1].
func (s *Server) budgetFrac() float64 {
	c := s.budget.Cap()
	if c <= 0 {
		return 0
	}
	return float64(s.budget.InUse()) / float64(c)
}

// RetryAfter parses a 429 response's Retry-After seconds (1 on absence);
// the load generator honors it.
func RetryAfter(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return time.Duration(n) * time.Second
		}
	}
	return time.Second
}
