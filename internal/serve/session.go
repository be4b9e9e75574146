package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"soarpsme/internal/engine"
	"soarpsme/internal/tasks/cypress"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// session hosts one engine behind a lock. Cypress sessions carry the
// workload driver and chunk schedule server-side; program sessions hold an
// uploaded OPS5 program driven by client deltas and recognize-act steps.
type session struct {
	id      string
	task    string // "cypress" or "program"
	created time.Time

	eng *engine.Engine
	// cypress-task state (nil for program sessions).
	sys       *cypress.System
	drv       *cypress.Driver
	nextChunk int

	cycles int // match cycles run via /run
	chunks int // productions added at run time

	// fp is the conflict set's wire rendering, kept current from the set's
	// add/retract journal (fingerprint) instead of re-rendered every cycle.
	fp fpIndex

	// Durability (nil/zero for non-durable sessions). create is the
	// original creation request, persisted in the snapshot so a restore
	// rebuilds the same task or program; lastSeq/lastRes are the
	// idempotency watermark: a retried request with Seq == lastSeq returns
	// the cached result instead of re-executing, which is what makes
	// client retries across a failover exactly-once.
	create  CreateRequest
	srv     *Server
	store   *store
	lastSeq int64
	lastRes *RunResult
	// walBroken poisons the session after a durability-barrier failure:
	// the engine has executed a request whose journal record never
	// reached disk, so the memory state is ahead of the journal and no
	// further mutation can be safely acknowledged.
	walBroken bool

	// Two counted resources stand between a request and the engine, each
	// taken by a send and given back by a receive. admit has QueueDepth+1
	// slots — one request running plus QueueDepth waiting — and is only ever
	// tried, never waited on: no free slot is the backpressure signal. turn
	// is the engine lock, a one-slot channel rather than a mutex so that a
	// waiter can still watch its client's cancel and blocked senders are
	// served in arrival order.
	admit chan struct{}
	turn  chan struct{}
	// retired makes Server.retire's work happen once; gone is set by its
	// shutdown and refuses every later request.
	retired sync.Once
	gone    atomic.Bool
	// broken is set while a request runs and cleared when it returns, so it
	// stays set iff one panicked under the turn, leaving the engine in a state
	// no replay of the journal reproduces. The session then fails stop: it
	// serves nothing more and is never snapshotted; what is on disk restores
	// it. Guarded by the turn.
	broken bool
}

// newSession wraps eng, built for req, in a session that takes over its
// conflict set. sys is the generated cypress system, nil for a program
// session; the workload driver is the caller's to attach (a fresh one at
// create, the snapshot's at restore).
func (s *Server) newSession(req CreateRequest, sys *cypress.System, eng *engine.Engine) *session {
	ss := &session{
		id:      req.ID,
		task:    "program",
		created: time.Now(),
		eng:     eng,
		sys:     sys,
		create:  req,
		srv:     s,
		admit:   make(chan struct{}, s.cfg.QueueDepth+1),
		turn:    make(chan struct{}, 1),
	}
	if sys != nil {
		ss.task = "cypress"
	}
	ss.syncFingerprint()
	return ss
}

// shutdown stops admission and takes every slot for good, so it returns once
// everything already admitted has run to completion — a drain loses no cycle
// — with the engine quiescent. Server.retire calls it, once.
func (s *session) shutdown() {
	s.gone.Store(true)
	for i := 0; i < cap(s.admit); i++ {
		s.admit <- struct{}{}
	}
}

var (
	// errBusy is returned when every admission slot is taken; the handler
	// maps it to 429 + Retry-After.
	errBusy = fmt.Errorf("serve: session queue full")
	// errGone is returned once the session has been shut down, or broken by
	// a request that panicked (410).
	errGone = fmt.Errorf("serve: session closed")
	// errCanceled is returned to a waiter whose client went away before its
	// turn came; fn has not run.
	errCanceled = fmt.Errorf("serve: request canceled")
)

// submit runs fn with exclusive access to the engine, on the caller's
// goroutine. A request that finds no admission slot fails fast with errBusy —
// the backpressure signal — rather than queueing unboundedly; an admitted one
// waits for its turn or for cancel, whichever comes first, and once it has
// the turn it runs to completion whatever happens to its client. If fn
// panics, the turn and the slot are given back as the panic unwinds and the
// session is left broken: whoever has the turn next is told errGone.
func (s *session) submit(cancel <-chan struct{}, fn func() (any, error)) (any, error) {
	if s.gone.Load() {
		return nil, errGone
	}
	select {
	case s.admit <- struct{}{}:
	default:
		// A shutdown that got in after the check above holds the slots for
		// good; that is not a queue to retry against.
		if s.gone.Load() {
			return nil, errGone
		}
		return nil, errBusy
	}
	defer func() { <-s.admit }()
	select {
	case s.turn <- struct{}{}:
	case <-cancel:
		return nil, errCanceled
	}
	defer func() { <-s.turn }()
	if s.broken {
		return nil, errGone
	}
	s.broken = true
	v, err := fn()
	s.broken = false
	return v, err
}

// runCycles advances the session n match cycles. Cypress sessions step the
// server-side driver, which with chunking on adds scheduled chunk
// productions mid-stream; program sessions run recognize-act steps. It
// reports per-cycle conflict-set fingerprints so clients can verify
// byte-identical match results against a solo serial run. A step that fired
// and matched before an excise failed is closed before the error returns,
// so the session's cycles, fingerprints and journal stay in step with the
// engine.
func (s *session) runCycles(res *RunResult, n int, chunking bool) error {
	for i := 0; i < n; i++ {
		switch s.task {
		case "cypress":
			added, err := s.drv.Step(s.eng, s.cycles, &s.nextChunk, chunking)
			s.chunks += added
			if err != nil {
				return err
			}
		case "program":
			fired, err := s.eng.Step()
			if !fired {
				res.Quiesced = err == nil
				return err
			}
			res.Fired++
			if err != nil {
				s.closeCycle(res)
				return err
			}
		}
		s.closeCycle(res)
	}
	return nil
}

// closeCycle ends one session cycle of a /run and appends its conflict-set
// fingerprint.
func (s *session) closeCycle(res *RunResult) {
	s.cycles++
	res.Cycles++
	res.LastCycle = s.cycles - 1
	res.Fingerprints = append(res.Fingerprints, s.fingerprint())
}

// fingerprint closes a served match cycle at a cost that follows what the
// cycle changed, and returns its fingerprint. It drains the conflict set's
// journal — net of the transients of parallel match, and already reconciled
// by EndRecovery when the cycle went through the serial fallback — into
// the fingerprint index. The session is the journal's only consumer, and
// the journal pins every retracted token and wme until it is drained.
func (s *session) fingerprint() string {
	if added, retracted := s.eng.CS.Drain(); !s.fp.apply(added, retracted) {
		s.fp.rebuild(s.eng.CS.All())
	}
	return s.fp.render(s.eng.WM.Len())
}

// syncFingerprint rebuilds the fingerprint index from the live conflict
// set and discards the journal that led up to it. A session calls it once,
// when it takes over an engine: after create's startup cycle, and after
// restore's serial rebuild and before its WAL replay.
func (s *session) syncFingerprint() {
	s.eng.CS.ResetJournal()
	s.fp.rebuild(s.eng.CS.All())
}

// run executes one /run request under the turn: an optional delta
// batch ingested as ONE match cycle (the whole batch alpha-dispatched
// before beta execution), then n recognize-act or driver cycles. Folding
// both into one request is the batched-ingest fast path: a client
// streaming wme changes pays one HTTP round trip per batch instead of one
// per delta plus one per run. Every engine cycle the request ran — an
// ingest batch, a cypress batch or a recognize-act step — is counted in res
// as the difference of the engine's totals across it.
func (s *session) run(deltas []DeltaJSON, n int, chunking bool) (*RunResult, error) {
	res := &RunResult{FirstCycle: s.cycles, LastCycle: s.cycles}
	before := s.eng.Totals
	if len(deltas) > 0 {
		if err := s.applyDeltas(res, deltas); err != nil {
			return nil, err
		}
	}
	err := s.runCycles(res, n, chunking)
	after := s.eng.Totals
	res.Tasks = after.Tasks - before.Tasks
	res.Failed = after.Failed - before.Failed
	res.Recovered = after.Recovered - before.Recovered
	return res, err
}

// writeAhead runs exec under the session's write-ahead rule, which lives
// here and nowhere else: the record is journaled to the WAL BEFORE exec runs,
// exec runs while the durability barrier flushes (see store.append for why
// the two may safely overlap), and the caller gets to acknowledge only after
// both finish — so a crash loses only unacknowledged work. The error is the
// journal's alone; exec keeps its own. A barrier failure poisons the session:
// the engine is then ahead of the journal, so acknowledging anything further
// would let a later crash silently lose it. A session without a store just
// runs exec: a non-durable one, and one being restored, which replays the
// journal it is reading through here and is given its store only afterwards
// (rebuildSession).
func (s *session) writeAhead(rec walRecord, exec func()) error {
	if s.store == nil {
		exec()
		return nil
	}
	if s.walBroken {
		return fmt.Errorf("serve: session %s journal failed a durability barrier; snapshot or restore it", s.id)
	}
	start := time.Now()
	n, barrier, err := s.store.append(rec)
	if err != nil {
		return fmt.Errorf("serve: WAL append: %w", err)
	}
	s.srv.mWALAppends.Inc()
	s.srv.mWALBytes.Add(uint64(n))
	exec()
	if err := barrier(); err != nil {
		s.walBroken = true
		return fmt.Errorf("serve: WAL sync: %w", err)
	}
	s.srv.mWALFsync.Observe(time.Since(start).Seconds())
	return nil
}

// runLogged is the durable entry point for /run: it short-circuits
// idempotent retries and runs the request write-ahead; restore's WAL replay
// plus Seq idempotency reconcile whatever a crash left unacknowledged, by
// re-deriving the pre-crash state through this same path.
func (s *session) runLogged(req *RunRequest) (*RunResult, error) {
	if req.Seq > 0 && req.Seq == s.lastSeq && s.lastRes != nil {
		cached := *s.lastRes
		cached.Cached = true
		return &cached, nil
	}
	var res *RunResult
	var err error
	werr := s.writeAhead(walRecord{Seq: req.Seq, Cycle: s.cycles, Run: req}, func() {
		res, err = s.run(req.Deltas, req.Cycles, req.Chunking)
	})
	if werr != nil {
		return nil, werr
	}
	if req.Seq > 0 {
		s.lastSeq = req.Seq
		if res != nil {
			s.lastRes = res
		}
	}
	return res, err
}

// applyDeltas converts the wire-format deltas and runs them through one
// match cycle, counted in res. Added wmes get server-assigned ids
// (res.Added, in order) that later removes reference. Bad deltas — unknown
// remove ids included — are dropped and counted by the engine, and the
// cycle degrades through the serial-recovery path; res reports it rather
// than desyncing.
func (s *session) applyDeltas(res *RunResult, in []DeltaJSON) error {
	if s.task != "program" {
		return fmt.Errorf("serve: deltas only apply to program sessions (task %q drives its own workload)", s.task)
	}
	var ds []wme.Delta
	var added []uint64
	for i, dj := range in {
		switch dj.Op {
		case "add":
			cls := s.eng.Tab.Intern(dj.Class)
			fields := make([]value.Value, len(dj.Fields))
			for j, f := range dj.Fields {
				v, err := jsonValue(s.eng.Tab, f)
				if err != nil {
					return fmt.Errorf("serve: delta %d field %d: %w", i, j, err)
				}
				fields[j] = v
			}
			w := s.eng.WM.Make(cls, fields)
			added = append(added, w.ID)
			ds = append(ds, wme.Delta{Op: wme.Add, WME: w})
		case "remove":
			w := s.eng.WM.Get(dj.ID)
			if w == nil {
				// Reference the id anyway: the engine counts it as a bad
				// delta and recovers, keeping server and client views honest.
				w = &wme.WME{ID: dj.ID}
			}
			ds = append(ds, wme.Delta{Op: wme.Remove, WME: w})
		default:
			return fmt.Errorf("serve: delta %d: bad op %q", i, dj.Op)
		}
	}
	bad0 := s.eng.BadDeltas
	s.eng.ApplyAndMatch(ds)
	res.Added = added
	res.BadDeltas = s.eng.BadDeltas - bad0
	s.closeCycle(res)
	return nil
}

// jsonValue maps a JSON field to an engine value: strings intern as
// symbols, numbers become ints when integral, null is nil.
func jsonValue(tab *value.Table, f any) (value.Value, error) {
	switch v := f.(type) {
	case nil:
		return value.Nil, nil
	case string:
		return tab.SymV(v), nil
	case float64:
		if v == float64(int64(v)) {
			return value.IntVal(int64(v)), nil
		}
		return value.FloatVal(v), nil
	default:
		return value.Nil, fmt.Errorf("unsupported field type %T", f)
	}
}

// SoloFingerprints runs a cypress workload on a fresh single-worker serial
// engine, mirroring a served session's cycle loop exactly, and returns the
// per-cycle fingerprints. The conformance test and the load generator use
// it as the byte-identical reference for every served session.
func SoloFingerprints(p cypress.Params, cycles int, chunking bool) ([]string, error) {
	sys := cypress.Generate(p)
	ec := engine.DefaultConfig()
	ec.Processes = 1
	e := engine.New(ec)
	if err := e.LoadProgram(sys.Source); err != nil {
		return nil, err
	}
	drv := cypress.NewDriver(sys, e.Tab, e.WM)
	var fps []string
	next := 0
	for cyc := 0; cyc < cycles; cyc++ {
		if _, err := drv.Step(e, cyc, &next, chunking); err != nil {
			return nil, err
		}
		fps = append(fps, Fingerprint(e))
	}
	return fps, nil
}

// stats snapshots the session for GET /sessions/{id}. Runs under the turn.
func (s *session) stats() *sessionInfo {
	return &sessionInfo{
		ID:        s.id,
		Task:      s.task,
		Created:   s.created.UTC().Format(time.RFC3339),
		Cycles:    s.cycles,
		Fired:     s.eng.Fired,
		WM:        s.eng.WM.Len(),
		Conflict:  s.eng.CS.Len(),
		BadDeltas: s.eng.BadDeltas,
		Recovered: s.eng.Totals.Recovered,
		Chunks:    s.chunks,
	}
}
