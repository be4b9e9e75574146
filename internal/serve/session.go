package serve

import (
	"fmt"
	"sync"
	"time"

	"soarpsme/internal/engine"
	"soarpsme/internal/tasks/cypress"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// command is one unit of session work: fn runs on the session's loop
// goroutine (so all engine access is serialized) and its result is sent on
// reply. reply is buffered so the loop never blocks on a handler that
// abandoned the request.
type command struct {
	fn    func() (any, error)
	reply chan cmdReply
}

type cmdReply struct {
	v   any
	err error
}

// Session hosts one engine behind a serialized command loop. Cypress
// sessions carry the workload driver and chunk schedule server-side;
// program sessions hold an uploaded OPS5 program driven by client deltas
// and recognize-act steps.
type Session struct {
	ID      string
	Task    string // "cypress" or "program"
	Created time.Time

	eng *engine.Engine
	// cypress-task state (nil for program sessions).
	sys       *cypress.System
	drv       *cypress.Driver
	nextChunk int

	cycles    int // match cycles run via /run
	chunks    int // productions added at run time
	recovered int // engine cycles that went through the serial fallback

	// fp is the conflict set's wire rendering, kept current from the set's
	// add/retract journal (fingerprint) instead of re-rendered every cycle.
	fp fpIndex

	// Durability (nil/zero for non-durable sessions). create is the
	// original creation request, persisted in the snapshot so a restore
	// rebuilds the same engine configuration; lastSeq/lastRes are the
	// idempotency watermark: a retried request with Seq == lastSeq returns
	// the cached result instead of re-executing, which is what makes
	// client retries across a failover exactly-once.
	create    CreateRequest
	srv       *Server
	store     *store
	lastSeq   int64
	lastRes   *RunResult
	replaying bool // true during WAL replay: skip re-journaling
	// walBroken poisons the session after a durability-barrier failure:
	// the engine has executed a request whose journal record never
	// reached disk, so the memory state is ahead of the journal and no
	// further mutation can be safely acknowledged.
	walBroken bool

	cmds     chan command
	quit     chan struct{} // closed via shutdown: drain queue and exit
	done     chan struct{} // closed when the loop has exited
	quitOnce sync.Once
}

// shutdown asks the loop to drain and exit; safe to call more than once
// (session DELETE can race Server.Close).
func (s *Session) shutdown() { s.quitOnce.Do(func() { close(s.quit) }) }

func (s *Session) loop() {
	defer close(s.done)
	for {
		select {
		case c := <-s.cmds:
			s.exec(c)
		case <-s.quit:
			// Drain: commands already admitted still run to completion
			// (their cycles must not be lost), then the loop exits.
			for {
				select {
				case c := <-s.cmds:
					s.exec(c)
				default:
					return
				}
			}
		}
	}
}

func (s *Session) exec(c command) {
	v, err := c.fn()
	c.reply <- cmdReply{v: v, err: err}
}

// errBusy is returned when the session's admission queue is full; the
// handler maps it to 429 + Retry-After.
var errBusy = fmt.Errorf("serve: session queue full")

// errGone is returned when the session loop has already exited.
var errGone = fmt.Errorf("serve: session closed")

// submit enqueues fn on the session loop and waits for its reply or the
// request context's cancellation. A full queue fails fast with errBusy —
// the backpressure signal — rather than queueing unboundedly.
func (s *Session) submit(cancel <-chan struct{}, fn func() (any, error)) (any, error) {
	c := command{fn: fn, reply: make(chan cmdReply, 1)}
	select {
	case s.cmds <- c:
	case <-s.done:
		return nil, errGone
	default:
		return nil, errBusy
	}
	select {
	case r := <-c.reply:
		return r.v, r.err
	case <-cancel:
		// The client went away; the command still runs (the loop owns it)
		// but nobody reads the buffered reply.
		return nil, fmt.Errorf("serve: request canceled")
	case <-s.done:
		// The loop drained the queue and exited after our enqueue raced
		// Server.Close; the reply (if any) is in the buffer.
		select {
		case r := <-c.reply:
			return r.v, r.err
		default:
			return nil, errGone
		}
	}
}

// withDeadline runs fn with the runtime's cycle watchdog set to d (0 keeps
// the session default). Safe here because only the loop goroutine runs
// engine cycles.
func (s *Session) withDeadline(d time.Duration, fn func() (any, error)) (any, error) {
	if d > 0 {
		prev := s.eng.RT.Deadline()
		s.eng.RT.SetDeadline(d)
		defer s.eng.RT.SetDeadline(prev)
	}
	return fn()
}

// runCycles advances the session n match cycles. Cypress sessions pull
// batches from the server-side driver and, with chunking on, add scheduled
// chunk productions mid-stream; program sessions run recognize-act steps.
// It reports per-cycle conflict-set fingerprints so clients can verify
// byte-identical match results against a solo serial run.
func (s *Session) runCycles(n int, chunking bool) (*RunResult, error) {
	res := &RunResult{FirstCycle: s.cycles, LastCycle: s.cycles}
	for i := 0; i < n; i++ {
		switch s.Task {
		case "cypress":
			cs := s.eng.ApplyAndMatch(s.drv.Batch())
			res.Tasks += cs.Tasks
			if cs.Failed {
				res.Failed++
			}
			if cs.Recovered {
				res.Recovered++
			}
			if chunking {
				for s.nextChunk < len(s.drv.ChunkAt) && s.drv.ChunkAt[s.nextChunk] == s.cycles {
					ast, err := s.sys.ParseChunk(s.nextChunk, s.eng.Tab)
					if err != nil {
						return res, fmt.Errorf("serve: chunk %d: %w", s.nextChunk, err)
					}
					if _, err := s.eng.AddProductionRuntime(ast); err != nil {
						return res, fmt.Errorf("serve: chunk %d: %w", s.nextChunk, err)
					}
					s.nextChunk++
					s.chunks++
				}
			}
		case "program":
			fired, err := s.eng.Step()
			if err != nil {
				return res, err
			}
			if !fired {
				res.Quiesced = true
				return res, nil
			}
			res.Fired++
		}
		s.cycles++
		res.Cycles++
		res.LastCycle = s.cycles - 1
		res.Fingerprints = append(res.Fingerprints, s.fingerprint())
	}
	return res, nil
}

// fingerprint closes a served match cycle at a cost that follows what the
// cycle changed, and returns its fingerprint. It drains the conflict set's
// journal — net of the transients of parallel match, and already reconciled
// by EndRecovery when the cycle went through the serial fallback — into
// the fingerprint index, and folds the engine's per-cycle stats into the
// running recovered count. The session is the only consumer of either, and
// both grow without bound unless consumed: the journal pins every retracted
// token and wme, the stats log one struct per cycle.
func (s *Session) fingerprint() string {
	s.foldCycleStats()
	if added, retracted := s.eng.CS.Drain(); !s.fp.apply(added, retracted) {
		s.fp.rebuild(s.eng.CS.All())
	}
	return s.fp.render(s.eng.WM.Len())
}

func (s *Session) foldCycleStats() {
	for i := range s.eng.CycleStats {
		if s.eng.CycleStats[i].Recovered {
			s.recovered++
		}
	}
	s.eng.CycleStats = s.eng.CycleStats[:0]
}

// syncFingerprint rebuilds the fingerprint index from the live conflict
// set and discards the journal that led up to it. A session calls it once,
// when it takes over an engine: after create's startup cycle, and after
// restore's serial rebuild and before its WAL replay.
func (s *Session) syncFingerprint() {
	s.foldCycleStats()
	s.eng.CS.ResetJournal()
	s.fp.rebuild(s.eng.CS.All())
}

// run executes one /run request on the session loop: an optional delta
// batch ingested as ONE match cycle (the whole batch alpha-dispatched
// before beta execution, exactly like /deltas), then n recognize-act or
// driver cycles. Folding both into one request is the batched-ingest fast
// path: a client streaming wme changes pays one HTTP round trip per batch
// instead of one per delta plus one per run.
func (s *Session) run(deltas []DeltaJSON, n int, chunking bool) (*RunResult, error) {
	res := &RunResult{FirstCycle: s.cycles, LastCycle: s.cycles}
	if len(deltas) > 0 {
		dr, err := s.applyDeltas(deltas)
		if err != nil {
			return nil, err
		}
		res.Cycles++
		res.LastCycle = s.cycles - 1
		res.Tasks += dr.Tasks
		if dr.Failed {
			res.Failed++
		}
		if dr.Recovered {
			res.Recovered++
		}
		res.Added = dr.Added
		res.BadDeltas = dr.BadDeltas
		res.Fingerprints = append(res.Fingerprints, dr.Fingerprint)
	}
	if n == 0 {
		return res, nil
	}
	rr, err := s.runCycles(n, chunking)
	if rr != nil {
		res.Cycles += rr.Cycles
		if rr.Cycles > 0 {
			res.LastCycle = rr.LastCycle
		}
		res.Fired = rr.Fired
		res.Tasks += rr.Tasks
		res.Failed += rr.Failed
		res.Recovered += rr.Recovered
		res.Quiesced = rr.Quiesced
		res.Fingerprints = append(res.Fingerprints, rr.Fingerprints...)
	}
	return res, err
}

// writeAhead runs exec under the session's write-ahead rule, which lives
// here and nowhere else: the record is journaled to the WAL BEFORE exec runs,
// exec runs while the durability barrier flushes (see store.append for why
// the two may safely overlap), and the caller gets to acknowledge only after
// both finish — so a crash loses only unacknowledged work. The error is the
// journal's alone; exec keeps its own. A barrier failure poisons the session:
// the engine is then ahead of the journal, so acknowledging anything further
// would let a later crash silently lose it. Non-durable sessions, and a
// restore replaying the journal it is reading, just run exec.
func (s *Session) writeAhead(rec walRecord, exec func()) error {
	if s.store == nil || s.replaying {
		exec()
		return nil
	}
	if s.walBroken {
		return fmt.Errorf("serve: session %s journal failed a durability barrier; snapshot or restore it", s.ID)
	}
	start := time.Now()
	n, barrier, err := s.store.append(rec)
	if err != nil {
		return fmt.Errorf("serve: WAL append: %w", err)
	}
	if s.srv != nil {
		s.srv.mWALAppends.Inc()
		s.srv.mWALBytes.Add(uint64(n))
	}
	exec()
	if err := barrier(); err != nil {
		s.walBroken = true
		return fmt.Errorf("serve: WAL sync: %w", err)
	}
	if s.srv != nil {
		s.srv.mWALFsync.Observe(time.Since(start).Seconds())
	}
	return nil
}

// runLogged is the durable entry point for /run: it short-circuits
// idempotent retries and runs the request write-ahead; restore's WAL replay
// plus Seq idempotency reconcile whatever a crash left unacknowledged, by
// re-deriving the pre-crash state through this same path.
func (s *Session) runLogged(req *RunRequest) (*RunResult, error) {
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

// deltasLogged is /deltas run write-ahead, journaled as a cycles-0 run
// record so restore replays it through runLogged.
func (s *Session) deltasLogged(in []DeltaJSON) (*DeltaResult, error) {
	var res *DeltaResult
	var err error
	werr := s.writeAhead(walRecord{Cycle: s.cycles, Run: &RunRequest{Deltas: in}}, func() {
		res, err = s.applyDeltas(in)
	})
	if werr != nil {
		return nil, werr
	}
	return res, err
}

// applyDeltas converts the wire-format deltas and runs them through one
// match cycle. Added wmes get server-assigned ids (returned in order) that
// later removes reference. Bad deltas — unknown remove ids included — are
// dropped and counted by the engine, and the cycle degrades through the
// serial-recovery path; the response reports it rather than desyncing.
func (s *Session) applyDeltas(in []DeltaJSON) (*DeltaResult, error) {
	if s.Task != "program" {
		return nil, fmt.Errorf("serve: deltas only apply to program sessions (task %q drives its own workload)", s.Task)
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
					return nil, fmt.Errorf("serve: delta %d field %d: %w", i, j, err)
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
			return nil, fmt.Errorf("serve: delta %d: bad op %q", i, dj.Op)
		}
	}
	bad0 := s.eng.BadDeltas
	cs := s.eng.ApplyAndMatch(ds)
	s.cycles++
	return &DeltaResult{
		Added:       added,
		Tasks:       cs.Tasks,
		Failed:      cs.Failed,
		Recovered:   cs.Recovered,
		Reason:      cs.Reason,
		BadDeltas:   s.eng.BadDeltas - bad0,
		Fingerprint: s.fingerprint(),
	}, nil
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
		e.ApplyAndMatch(drv.Batch())
		if chunking {
			for next < len(drv.ChunkAt) && drv.ChunkAt[next] == cyc {
				ast, err := sys.ParseChunk(next, e.Tab)
				if err != nil {
					return nil, err
				}
				if _, err := e.AddProductionRuntime(ast); err != nil {
					return nil, err
				}
				next++
			}
		}
		fps = append(fps, Fingerprint(e))
	}
	return fps, nil
}

// stats snapshots the session for GET /sessions/{id}. Runs on the loop.
func (s *Session) stats() *SessionInfo {
	return &SessionInfo{
		ID:        s.ID,
		Task:      s.Task,
		Created:   s.Created.UTC().Format(time.RFC3339),
		Cycles:    s.cycles,
		Fired:     s.eng.Fired,
		WM:        s.eng.WM.Len(),
		Conflict:  s.eng.CS.Len(),
		BadDeltas: s.eng.BadDeltas,
		Recovered: s.recovered,
		Chunks:    s.chunks,
	}
}
