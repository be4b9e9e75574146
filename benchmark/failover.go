package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"soarpsme/internal/obs"
	"soarpsme/internal/serve"
	"soarpsme/internal/tasks/cypress"
)

// Cycle counts of one failover round: A runs failoverPre cycles, takes a
// snapshot, runs failoverTail more (the WAL tail a restore replays); B
// restores and runs failoverPost.
const (
	failoverPre  = 40
	failoverTail = 10
	failoverPost = 10
)

// failoverPrograms is how many different cypress programs the workload's
// sessions cycle through. A cypress seed decides the whole program, and
// programs differ by several percent in match work, snapshot size and
// allocations; cycling through eight of them keeps one run's totals close
// to another seed's, and keeps several compiled images live in the cache.
const failoverPrograms = 8

// failoverCypress is the i-th session program of a run: small enough that
// a round is tens of milliseconds, with its twelve chunks scheduled so some
// land before the snapshot (restored from the image's private suffix) and
// some in the WAL tail (re-added during replay).
func failoverCypress(seed uint64, i int) cypress.Params {
	return cypress.Params{Productions: 100, Chunks: 12, Cycles: failoverPre + failoverTail + failoverPost,
		Seed: seed*failoverPrograms + uint64(i) + 1}
}

// failoverProgram is one session program with its create request and the
// solo serial fingerprints its sessions must reproduce.
type failoverProgram struct {
	create []byte
	solo   []string
}

// serveFailover is the session lifecycle: two servers in one process share
// a data directory; every round creates a durable cypress session on A,
// runs it, snapshots it, runs a WAL tail, then fails it over to B by
// restore, where the retried last request must come back cached and the
// continued run must match the solo serial reference.
type serveFailover struct {
	a, b     *serve.Server
	ha, hb   http.Handler
	oa, ob   *obs.Observer
	dataDir  string
	programs []failoverProgram
	// snapBytes is the size of the last explicit snapshot.
	snapBytes int
}

func setupServeFailover(e *env) (script, error) { return newServeFailover(e, failoverPrograms) }

func newServeFailover(e *env, programs int) (*serveFailover, error) {
	s := &serveFailover{oa: obs.New(), ob: obs.New()}
	for i := 0; i < programs; i++ {
		p := failoverCypress(e.seed, i)
		solo, err := serve.SoloFingerprints(p, p.Cycles, true)
		if err != nil {
			return nil, err
		}
		create, _ := json.Marshal(serve.CreateRequest{Task: "cypress", Params: &p})
		s.programs = append(s.programs, failoverProgram{create: create, solo: solo})
	}
	var err error
	if s.dataDir, err = os.MkdirTemp(e.out, "data-"); err != nil {
		return nil, err
	}
	s.a = serve.New(psmedConfig(s.oa, s.dataDir))
	s.b = serve.New(psmedConfig(s.ob, s.dataDir))
	s.ha, s.hb = s.a.Handler(), s.b.Handler()
	return s, nil
}

func (s *serveFailover) run(rounds int, rec *recorder) {
	c := rec.client(0)
	for r := 0; r < rounds; r++ {
		c.beginRound(r)
		if s.round(c, &s.programs[c.round%len(s.programs)]) {
			c.credit(1) // the unit of work is a completed failover
		}
		c.endRound()
	}
}

// round drives one failover and reports whether every step succeeded.
// Every request is an op. A failed step fails the steps that depend on it
// too, so attempted counts the same nine requests per round either way.
func (s *serveFailover) round(c *client, prog *failoverProgram) bool {
	ok := true
	// do issues one request unless an earlier step already failed.
	do := func(name string, h http.Handler, method, path string, body []byte, out any, check func() error) {
		if !ok {
			c.op(name, time.Now(), 0, 0, fmt.Errorf("skipped: an earlier step of the round failed"))
			return
		}
		t0, d, code, resp := call(h, method, path, body)
		err := decode(code, resp, out)
		if err == nil && check != nil {
			err = check()
		}
		c.op(name, t0, d, 0, err)
		ok = err == nil
	}
	runBody := func(cycles int, seq int64) []byte {
		b, _ := json.Marshal(serve.RunRequest{Cycles: cycles, Seq: seq, Chunking: true})
		return b
	}
	// matches checks a run result against the solo reference from cycle at.
	matches := func(res *serve.RunResult, at, n int, cached bool) func() error {
		return func() error {
			if res.Cycles != n || res.Failed != 0 || res.Cached != cached || len(res.Fingerprints) != n {
				return fmt.Errorf("cycles=%d failed=%d cached=%v fingerprints=%d", res.Cycles, res.Failed, res.Cached, len(res.Fingerprints))
			}
			for i, fp := range res.Fingerprints {
				surplus, ok := fingerprintSurplus(fp, prog.solo[at+i])
				if !ok {
					return fmt.Errorf("cycle %d: fingerprint differs from the solo serial reference", at+i)
				}
				if surplus > 0 {
					c.noteStale()
				}
			}
			return nil
		}
	}

	var created serve.CreateResult
	do("create", s.ha, "POST", "/sessions", prog.create, &created, nil)
	base := "/sessions/" + created.ID
	var pre, tail, retried, post serve.RunResult
	do("run-pre", s.ha, "POST", base+"/run", runBody(failoverPre, 1), &pre, matches(&pre, 0, failoverPre, false))
	var snap serve.SnapshotResult
	do("snapshot", s.ha, "POST", base+"/snapshot", nil, &snap, nil)
	s.snapBytes = snap.Bytes
	do("run-tail", s.ha, "POST", base+"/run", runBody(failoverTail, 2), &tail, matches(&tail, failoverPre, failoverTail, false))
	var restored serve.RestoreResult
	do("restore", s.hb, "POST", base+"/restore", nil, &restored, func() error {
		if restored.Cycles != failoverPre+failoverTail || restored.Replayed != 1 {
			return fmt.Errorf("restored at cycle %d after %d replayed records", restored.Cycles, restored.Replayed)
		}
		return nil
	})
	// The client's retry of its last pre-failover request must be answered
	// from the idempotency watermark that rode in the WAL, not re-executed.
	do("retry", s.hb, "POST", base+"/run", runBody(failoverTail, 2), &retried, matches(&retried, failoverPre, failoverTail, true))
	do("run-post", s.hb, "POST", base+"/run", runBody(failoverPost, 3), &post, matches(&post, failoverPre+failoverTail, failoverPost, false))
	do("delete-b", s.hb, "DELETE", base, nil, nil, nil)
	do("delete-a", s.ha, "DELETE", base, nil, nil, nil)
	if !ok && created.ID != "" {
		// Best effort, unrecorded: a failed round must not leak its session
		// into the next ones.
		call(s.hb, "DELETE", base, nil)
		call(s.ha, "DELETE", base, nil)
	}
	return ok
}

func (s *serveFailover) close() {
	s.a.Close()
	s.b.Close()
	os.RemoveAll(s.dataDir)
}
