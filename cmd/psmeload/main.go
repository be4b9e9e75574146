// Command psmeload drives a psmed daemon with S concurrent cypress
// sessions of C cycles each and reports aggregate serving throughput.
// With -verify (the default) it first computes the solo serial run's
// per-cycle conflict-set fingerprints in-process and asserts every served
// session matches them byte for byte — the serving layer's conformance
// contract under real HTTP concurrency.
//
// With -ingest the sessions are program sessions driven by client-side
// wme-delta batches instead of server-side cypress cycles: each /run
// request carries -batch deltas ingested as ONE match cycle, so the report
// separates cycles/sec (request/cycle overhead) from deltas/sec (ingest
// bandwidth). The delta script is deterministic — a rotating window of
// item adds, joining probe adds, and windowed removes of the oldest
// outstanding wme — so -verify can replay it on an in-process serial
// engine and demand byte-identical per-cycle fingerprints.
//
// Backpressure (429) is honored via Retry-After; every cycle is accounted
// for, and the exit status is nonzero on lost cycles or fingerprint
// divergence — CI's serve-smoke leg keys off it.
//
// Failover is client-driven. -addr takes a comma-separated list of psmed
// servers sharing one -data directory; session i starts on address i mod
// n. When a session's request fails in transport — its server is taken to
// be dead — the session moves to the next address, POSTs
// /sessions/{id}/restore there (image + WAL suffix), and resends the same
// request. Every /run carries a Seq, so a resent request the dead server
// had already applied is answered from the restored session's cache:
// exactly once. CI's restore-storm-smoke leg kills one server mid-run and
// still demands a zero exit, all cycles accounted, all fingerprints
// byte-identical, and as many restores on the survivor as psmeload
// reports.
//
// Usage:
//
//	psmeload [-addr http://127.0.0.1:8740[,http://...]] [-sessions 8]
//	         [-cycles 60] [-batch 10] [-chunking] [-policy work-stealing]
//	         [-productions 60] [-chunks 6] [-seed 17] [-verify]
//	         [-ingest] [-deltas 480]
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"soarpsme/internal/serve"
	"soarpsme/internal/tasks/cypress"
)

// statusError is a response psmed sent with a non-2xx status. Any other
// error from call is a transport error: the server is unreachable.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

func call(method, url string, body, out any) error {
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				return err
			}
			rd = bytes.NewReader(b)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 100 {
			time.Sleep(serve.RetryAfter(resp))
			continue
		}
		if resp.StatusCode >= 300 {
			return &statusError{resp.StatusCode,
				fmt.Sprintf("%s %s: %d %s", method, url, resp.StatusCode, bytes.TrimSpace(data))}
		}
		if out != nil {
			return json.Unmarshal(data, out)
		}
		return nil
	}
}

func hasStatus(err error, code int) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == code
}

// session is one load session's view of the fleet: the servers it may
// use, the one it is on, and its id. The id is chosen here, unique to this
// run, because every server writes under the same data directory.
type session struct {
	addrs    []string
	cur      int
	id       string
	moved    bool // failed over at least once
	restores int  // successful failover restores
}

func newSession(addrs []string, run string, i int) *session {
	return &session{addrs: addrs, cur: i % len(addrs), id: fmt.Sprintf("%s-%d", run, i)}
}

// do sends one request for the session, failing over on a transport error:
// it moves to the next address, restores the session there from the shared
// data directory, and resends the request unchanged. Each address is
// tried at most once per request.
func (c *session) do(method, path string, body, out any) error {
	for moves := 0; ; moves++ {
		err := call(method, c.addrs[c.cur]+path, body, out)
		var se *statusError
		if err == nil || errors.As(err, &se) || moves == len(c.addrs)-1 {
			return err
		}
		c.cur = (c.cur + 1) % len(c.addrs)
		c.moved = true
		if rerr := c.restore(); rerr != nil {
			return fmt.Errorf("failover after %v: %w", err, rerr)
		}
	}
}

// restore rebuilds the session on its current server. 409 means it is
// already live there; 404 means there is nothing on disk to restore (the
// create never landed, or the delete did), which the resent request
// settles.
func (c *session) restore() error {
	err := call("POST", c.addrs[c.cur]+"/sessions/"+c.id+"/restore", nil, nil)
	switch {
	case err == nil:
		c.restores++
		return nil
	case hasStatus(err, http.StatusConflict), hasStatus(err, http.StatusNotFound):
		return nil
	}
	return err
}

// create opens the session; delete closes it. After a failover, a create
// that finds the session live (restored) or a delete that finds it gone
// had landed before the crash.
func (c *session) create(req serve.CreateRequest) error {
	req.ID = c.id
	err := c.do("POST", "/sessions", req, nil)
	if hasStatus(err, http.StatusConflict) && c.moved {
		return nil
	}
	return err
}

func (c *session) delete() error {
	err := c.do("DELETE", "/sessions/"+c.id, nil, nil)
	if hasStatus(err, http.StatusNotFound) && c.moved {
		return nil
	}
	return err
}

type sessionReport struct {
	cycles   int
	deltas   int
	tasks    int
	restores int
	err      error
}

// finish checks a session's fingerprints against the solo serial run
// (baseline nil: unverified) and deletes it.
func finish(c *session, fps, baseline []string) error {
	if baseline != nil {
		for i := range fps {
			if i >= len(baseline) || fps[i] != baseline[i] {
				return fmt.Errorf("session %s cycle %d fingerprint diverged from solo serial run", c.id, i)
			}
		}
	}
	return c.delete()
}

// driveIngestSession feeds the delta script to one program session, one
// /run request (= one match cycle) per batch, resolving remove references
// through the server-assigned ids accumulated from RunResult.Added.
func driveIngestSession(c *session, policy string, script [][]serve.IngestOp, baseline []string) (rep sessionReport) {
	if err := c.create(serve.CreateRequest{Program: serve.IngestProgram, Policy: policy}); err != nil {
		rep.err = fmt.Errorf("create: %w", err)
		return rep
	}
	var ids []uint64
	var fps []string
	for cyc, ops := range script {
		batch, err := serve.IngestBatchJSON(ops, ids)
		if err != nil {
			rep.err = fmt.Errorf("ingest cycle %d: %w", cyc, err)
			return rep
		}
		var res serve.RunResult
		if err := c.do("POST", "/sessions/"+c.id+"/run", serve.RunRequest{Deltas: batch, Seq: int64(cyc) + 1}, &res); err != nil {
			rep.err = fmt.Errorf("ingest cycle %d: %w", cyc, err)
			return rep
		}
		if res.Cycles != 1 || res.BadDeltas > 0 || res.Failed > 0 {
			rep.err = fmt.Errorf("ingest cycle %d: cycles=%d bad=%d failed=%d", cyc, res.Cycles, res.BadDeltas, res.Failed)
			return rep
		}
		rep.cycles += res.Cycles
		rep.deltas += len(batch)
		rep.tasks += res.Tasks
		ids = append(ids, res.Added...)
		fps = append(fps, res.Fingerprints...)
	}
	rep.err = finish(c, fps, baseline)
	return rep
}

func driveSession(c *session, p cypress.Params, policy string, cycles, batch int, chunking bool, baseline []string) (rep sessionReport) {
	if err := c.create(serve.CreateRequest{Task: "cypress", Params: &p, Policy: policy}); err != nil {
		rep.err = fmt.Errorf("create: %w", err)
		return rep
	}
	var fps []string
	var seq int64
	for rep.cycles < cycles {
		n := batch
		if rem := cycles - rep.cycles; rem < n {
			n = rem
		}
		var res serve.RunResult
		seq++
		if err := c.do("POST", "/sessions/"+c.id+"/run", serve.RunRequest{Cycles: n, Chunking: chunking, Seq: seq}, &res); err != nil {
			rep.err = fmt.Errorf("run after %d cycles: %w", rep.cycles, err)
			return rep
		}
		rep.cycles += res.Cycles
		rep.tasks += res.Tasks
		fps = append(fps, res.Fingerprints...)
		if res.Cycles != n {
			rep.err = fmt.Errorf("lost cycles: ran %d of %d", res.Cycles, n)
			return rep
		}
	}
	rep.err = finish(c, fps, baseline)
	return rep
}

// runSessions drives n sessions of run concurrently and reports the wall
// time and the summed report; session errors go to stderr and are counted
// in failed.
func runSessions(addrs []string, run string, n int, drive func(*session) sessionReport) (elapsed time.Duration, sum sessionReport, failed int) {
	start := time.Now()
	reports := make([]sessionReport, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newSession(addrs, run, i)
			reports[i] = drive(c)
			reports[i].restores = c.restores
		}(i)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for i, r := range reports {
		sum.cycles += r.cycles
		sum.deltas += r.deltas
		sum.tasks += r.tasks
		sum.restores += r.restores
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "psmeload: session %d: %v\n", i, r.err)
		}
	}
	return elapsed, sum, failed
}

// printTail ends a report line: the verification tag, and with more than
// one address the failover restores CI compares with the survivor's
// serve_sessions_restored_total.
func printTail(verify bool, addrs []string, sum sessionReport) {
	if verify {
		fmt.Printf(" [verified vs solo serial]")
	}
	if len(addrs) > 1 {
		fmt.Printf(" [failover restores: %d]", sum.restores)
	}
	fmt.Println()
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8740", "psmed base URL, or a comma-separated list of servers sharing one -data directory (a session fails over to the next on a transport error)")
	sessions := flag.Int("sessions", 8, "concurrent sessions")
	cycles := flag.Int("cycles", 60, "cycles per session")
	batch := flag.Int("batch", 10, "cycles per run request")
	chunking := flag.Bool("chunking", true, "enable mid-stream chunk additions (AddProductionRuntime)")
	policy := flag.String("policy", "work-stealing", "session scheduling policy")
	productions := flag.Int("productions", 60, "cypress task productions")
	chunks := flag.Int("chunks", 6, "cypress run-time chunks")
	seed := flag.Uint64("seed", 17, "cypress workload seed (all sessions share it)")
	verify := flag.Bool("verify", true, "verify per-cycle fingerprints against an in-process solo serial run")
	ingest := flag.Bool("ingest", false, "drive program sessions with client-side delta batches via /run (-batch deltas = one match cycle) instead of server-side cypress cycles")
	deltas := flag.Int("deltas", 480, "ingest mode: wme deltas per session (the stream is fixed; -batch only changes how many ride one request)")
	flag.Parse()

	var addrs []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "psmeload: -addr is empty")
		os.Exit(2)
	}
	// Session ids are unique to this run: a create over a leftover session
	// directory would append to its WAL.
	run := fmt.Sprintf("load%x", time.Now().UnixNano())

	if *ingest {
		runIngest(addrs, run, *policy, *sessions, *deltas, *batch, *verify)
		return
	}

	// All sessions share one seed, so one solo baseline checks them all.
	p := cypress.Params{Productions: *productions, AvgCEs: 10, Chunks: *chunks, ChunkCEs: 16,
		Alphabet: 6, Cycles: *cycles, Seed: *seed}
	var baseline []string
	if *verify {
		fps, err := serve.SoloFingerprints(p, *cycles, *chunking)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psmeload: baseline:", err)
			os.Exit(1)
		}
		baseline = fps
	}

	elapsed, sum, failed := runSessions(addrs, run, *sessions, func(c *session) sessionReport {
		return driveSession(c, p, *policy, *cycles, *batch, *chunking, baseline)
	})
	fmt.Printf(";; psmeload: %d sessions x %d cycles: %d cycles in %.3fs (%.1f cycles/sec, %d match tasks)",
		*sessions, *cycles, sum.cycles, elapsed.Seconds(), float64(sum.cycles)/elapsed.Seconds(), sum.tasks)
	printTail(*verify, addrs, sum)
	if failed > 0 || sum.cycles != *sessions**cycles {
		fmt.Fprintf(os.Stderr, "psmeload: FAILED: %d session errors, %d/%d cycles completed\n",
			failed, sum.cycles, *sessions**cycles)
		os.Exit(1)
	}
}

// runIngest is the -ingest mode: every session replays the same fixed
// delta stream chopped into -batch-sized requests, so different batch
// sizes ingest identical work and deltas/sec — the sustained ingest
// bandwidth — is directly comparable across them. cycles/sec (one cycle
// per request) is reported alongside as the request-overhead view.
func runIngest(addrs []string, run, policy string, sessions, deltas, batch int, verify bool) {
	if batch < 1 || batch > serve.IngestRemoveLag {
		fmt.Fprintf(os.Stderr, "psmeload: ingest -batch must be in [1, %d] (removes reference ids assigned %d slots earlier)\n",
			serve.IngestRemoveLag, serve.IngestRemoveLag)
		os.Exit(2)
	}
	batches := serve.ChopScript(serve.IngestScript(deltas), batch)
	var baseline []string
	if verify {
		fps, err := serve.IngestBaseline(batches)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psmeload: ingest baseline:", err)
			os.Exit(1)
		}
		baseline = fps
	}

	elapsed, sum, failed := runSessions(addrs, run, sessions, func(c *session) sessionReport {
		return driveIngestSession(c, policy, batches, baseline)
	})
	fmt.Printf(";; psmeload ingest: %d sessions x %d deltas (batch %d): %d cycles in %.3fs (%.1f cycles/sec, %.1f deltas/sec, %d match tasks)",
		sessions, deltas, batch, sum.cycles, elapsed.Seconds(), float64(sum.cycles)/elapsed.Seconds(), float64(sum.deltas)/elapsed.Seconds(), sum.tasks)
	printTail(verify, addrs, sum)
	if failed > 0 || sum.deltas != sessions*deltas {
		fmt.Fprintf(os.Stderr, "psmeload: FAILED: %d session errors, %d/%d deltas ingested\n",
			failed, sum.deltas, sessions*deltas)
		os.Exit(1)
	}
}
