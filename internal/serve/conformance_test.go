package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soarpsme/internal/fault"
	"soarpsme/internal/obs"
	"soarpsme/internal/prun"
	"soarpsme/internal/tasks/cypress"
)

// cypressParams sizes a small, fast cypress workload for tests. Cycles must
// be >= 20 so the chunk schedule stays increasing.
func cypressParams(prods, cycles, chunks int, seed uint64) *cypress.Params {
	return &cypress.Params{Productions: prods, AvgCEs: 8, Chunks: chunks, ChunkCEs: 12, Alphabet: 6, Cycles: cycles, Seed: seed}
}

// soloFingerprints is the test-fataling wrapper over SoloFingerprints.
func soloFingerprints(t testing.TB, p cypress.Params, cycles int, chunking bool) []string {
	t.Helper()
	fps, err := SoloFingerprints(p, cycles, chunking)
	if err != nil {
		t.Fatal(err)
	}
	return fps
}

// postJSON is the error-returning twin of doJSON for use off the test
// goroutine. It retries on 429, honoring Retry-After.
func postJSON(method, url string, body, out any) error {
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
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 50 {
			time.Sleep(RetryAfter(resp) / 100)
			continue
		}
		if resp.StatusCode >= 300 {
			return fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, data)
		}
		if out != nil {
			return json.Unmarshal(data, out)
		}
		return nil
	}
}

// driveSession creates a session, runs the workload in several batch
// requests, and verifies every per-cycle fingerprint against the solo
// serial baseline. It reports how many of the session's cycles went
// through the serial fallback.
func driveSession(url string, chunking bool, p cypress.Params, cycles, batch int, baseline []string) (recovered int, err error) {
	var created CreateResult
	if err := postJSON("POST", url+"/sessions", CreateRequest{Task: "cypress", Params: &p}, &created); err != nil {
		return 0, fmt.Errorf("chunking=%v: create: %w", chunking, err)
	}
	base := url + "/sessions/" + created.ID
	var fps []string
	for len(fps) < cycles {
		n := batch
		if rem := cycles - len(fps); rem < n {
			n = rem
		}
		var res RunResult
		if err := postJSON("POST", base+"/run", RunRequest{Cycles: n, Chunking: chunking}, &res); err != nil {
			return 0, fmt.Errorf("%s: run: %w", created.ID, err)
		}
		if res.Cycles != n {
			return 0, fmt.Errorf("%s: lost cycles: ran %d of %d", created.ID, res.Cycles, n)
		}
		fps = append(fps, res.Fingerprints...)
		recovered += res.Recovered
	}
	if len(fps) != len(baseline) {
		return 0, fmt.Errorf("%s: %d fingerprints vs %d baseline", created.ID, len(fps), len(baseline))
	}
	for i := range fps {
		if fps[i] != baseline[i] {
			return 0, fmt.Errorf("%s (chunking=%v): cycle %d fingerprint diverged from solo serial run:\n  got  %s\n  want %s\n%s",
				created.ID, chunking, i, fps[i], baseline[i], lastCycleTexts(base, p, cycles, chunking))
		}
	}
	var audit struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	if err := postJSON("GET", base+"/audit", nil, &audit); err != nil {
		return 0, fmt.Errorf("%s: audit: %w", created.ID, err)
	}
	if !audit.OK {
		return 0, fmt.Errorf("%s: audit failed: %s", created.ID, audit.Error)
	}
	return recovered, postJSON("DELETE", base, nil, nil)
}

// driveIngest creates an IngestProgram session, sends each batch as one
// ingest-only /run, and verifies every cycle's fingerprint against the
// serial baseline want. It counts in helped the session's match cycles
// that ran with helpers, read on its turn by the engine's AfterCycle hook,
// and reports how many of its cycles went through the serial fallback.
func driveIngest(s *Server, url string, batches [][]IngestOp, want []string, helped *atomic.Int64) (recovered int, err error) {
	var created CreateResult
	if err := postJSON("POST", url+"/sessions", CreateRequest{Program: IngestProgram}, &created); err != nil {
		return 0, fmt.Errorf("ingest: create: %w", err)
	}
	ss := liveSession(s, created.ID)
	if _, err := ss.submit(nil, func() (any, error) {
		ss.eng.AfterCycle = func(cs *prun.CycleStats) {
			if cs.Workers > 1 {
				helped.Add(1)
			}
		}
		return nil, nil
	}); err != nil {
		return 0, fmt.Errorf("%s: set AfterCycle: %w", created.ID, err)
	}
	base := url + "/sessions/" + created.ID
	var ids []uint64
	for i, ops := range batches {
		ds, err := IngestBatchJSON(ops, ids)
		if err != nil {
			return 0, fmt.Errorf("%s: ingest #%d: %w", created.ID, i, err)
		}
		var res RunResult
		if err := postJSON("POST", base+"/run", RunRequest{Deltas: ds}, &res); err != nil {
			return 0, fmt.Errorf("%s: run: %w", created.ID, err)
		}
		if res.Fingerprints[0] != want[i] {
			return 0, fmt.Errorf("%s: ingest #%d diverged from the serial baseline:\n  got  %s\n  want %s", created.ID, i, res.Fingerprints[0], want[i])
		}
		ids = append(ids, res.Added...)
		recovered += res.Recovered
	}
	return recovered, postJSON("DELETE", base, nil, nil)
}

// lastCycleTexts renders, for a failure message, the conflict set a
// served session holds after its last cycle beside the solo serial run's
// at the same cycle, so a digest mismatch still shows which instantiation
// differs.
func lastCycleTexts(base string, p cypress.Params, cycles int, chunking bool) string {
	var cs csResponse
	if err := postJSON("GET", base+"/conflict-set", nil, &cs); err != nil {
		return err.Error()
	}
	ref, err := solo(p, cycles, chunking, csText)
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("after the last cycle:\n  served %s\n  solo   %s", cs.view().Text, ref[len(ref)-1])
}

// TestConcurrentSessionsByteIdentical is the serving conformance test (run
// under -race in CI): under each policy, 8 concurrent cypress sessions, with
// and without mid-stream AddProductionRuntime chunking, and 2 sessions
// ingesting 64-delta batches, over one shared 4-slot worker budget, on three
// servers. On the first, seeded worker panics poison some cycles onto the
// serial-fallback path while the rest run healthy, interleaved across all
// ten sessions. On the second, seeded stalls of the CLI's 2 ms stand in for
// paper-sized tasks: an ingest cycle whose backlog is held across one
// crosses, so some cycle must run with helpers (a cypress cycle never holds a backlog, and
// nearly every ingest cycle on the first server panics). On the third, a
// 1ns deadline poisons every cycle that runs a task: each task stalls until
// the watchdog fires. Every session's per-cycle conflict-set fingerprints
// must be byte-identical to a solo serial run of the same task.
func TestConcurrentSessionsByteIdentical(t *testing.T) {
	const cycles, batch = 24, 7
	p := *cypressParams(40, cycles, 4, 11)
	baseline := map[bool][]string{
		false: soloFingerprints(t, p, cycles, false),
		true:  soloFingerprints(t, p, cycles, true),
	}
	chunking := []bool{false, true, false, true, false, true, true, false}
	const ingesters = 2
	batches := ChopScript(IngestScript(512), 64)
	ingestWant, err := IngestBaseline(batches)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []prun.Policy{prun.MultiQueue, prun.WorkStealing} {
		t.Run(pol.String(), func(t *testing.T) {
			for _, srv := range []struct {
				name string
				cfg  Config
			}{
				{"panics", Config{Fault: fault.Seeded(11, fault.Rates{Panic: 2048})}},
				{"stalls", Config{Fault: fault.Seeded(11, fault.Rates{Stall: 2048, StallFor: fault.DefaultRates().StallFor})}},
				{"deadline", Config{Deadline: time.Nanosecond, Fault: fault.Seeded(11, fault.Rates{Stall: 1 << 16, StallFor: time.Minute})}},
			} {
				cfg := srv.cfg
				cfg.Workers, cfg.Processes, cfg.Policy, cfg.QueueDepth, cfg.Obs = 4, 4, pol, 8, obs.New()
				s, ts := testServer(t, cfg)
				var wg sync.WaitGroup
				var recovered, helped atomic.Int64
				errs := make(chan error, len(chunking)+ingesters)
				for _, c := range chunking {
					wg.Add(1)
					go func(c bool) {
						defer wg.Done()
						n, err := driveSession(ts.URL, c, p, cycles, batch, baseline[c])
						recovered.Add(int64(n))
						errs <- err
					}(c)
				}
				for range ingesters {
					wg.Add(1)
					go func() {
						defer wg.Done()
						n, err := driveIngest(s, ts.URL, batches, ingestWant, &helped)
						recovered.Add(int64(n))
						errs <- err
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						t.Error(err)
					}
				}
				total := len(chunking)*cycles + ingesters*len(batches)
				if got := s.cfg.Obs.Counter("serve_cycles_total").Value(); got != uint64(total) {
					t.Fatalf("serve_cycles_total = %d, want %d (no lost cycles)", got, total)
				}
				n := recovered.Load()
				t.Logf("%s: %d of %d cycles recovered; %d ingest match cycles ran with helpers", srv.name, n, total, helped.Load())
				switch {
				case srv.name == "panics" && (n == 0 || n == int64(total)):
					t.Fatalf("seeded panics recovered %d of %d cycles, want some poisoned and some healthy", n, total)
				case srv.name == "stalls" && helped.Load() == 0:
					t.Fatalf("no ingest cycle held its backlog across a 2 ms stall and ran with helpers")
				case srv.name == "deadline" && n <= int64(total/2):
					t.Fatalf("a 1ns deadline over stalled tasks recovered %d of %d cycles, want most", n, total)
				}
			}
		})
	}
}

// TestHammeredSessionTilesCycles is the admission and exclusion contract of
// one session under contention (run under -race in CI): 16 clients race 24
// two-cycle /run requests into a session that admits one running plus one
// waiting. Every answer is a 200 or a 429 with Retry-After; the 200s' cycle
// ranges tile [0, 48) with no overlap or gap — the engine never saw two
// callers, and nothing admitted was lost — and carry the solo run's
// fingerprints for exactly those cycles.
func TestHammeredSessionTilesCycles(t *testing.T) {
	const clients, requests, per = 16, 24, 2
	const cycles = requests * per
	p := *cypressParams(40, cycles, 4, 11)
	solo := soloFingerprints(t, p, cycles, true)

	s, ts := testServer(t, Config{Workers: 2, Processes: 2, QueueDepth: 1, Obs: obs.New()})
	var created CreateResult
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{Task: "cypress", Params: &p}, &created); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	body, _ := json.Marshal(RunRequest{Cycles: per, Chunking: true})

	var tickets atomic.Int32
	var mu sync.Mutex
	covered := make([]bool, cycles)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tickets.Add(1) <= requests {
				for done := false; !done; {
					resp, err := http.Post(ts.URL+"/sessions/"+created.ID+"/run", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					data, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusTooManyRequests:
						if resp.Header.Get("Retry-After") == "" {
							t.Error("429 without Retry-After")
						}
						time.Sleep(time.Millisecond)
					case http.StatusOK:
						done = true
						var res RunResult
						if err := json.Unmarshal(data, &res); err != nil {
							t.Error(err)
							return
						}
						if res.Cycles != per || res.LastCycle-res.FirstCycle+1 != per || len(res.Fingerprints) != per || res.LastCycle >= cycles {
							t.Errorf("short or misplaced run: %+v", res)
							return
						}
						mu.Lock()
						for i, fp := range res.Fingerprints {
							at := res.FirstCycle + i
							if covered[at] {
								t.Errorf("cycle %d answered twice", at)
							}
							covered[at] = true
							if fp != solo[at] {
								t.Errorf("cycle %d fingerprint diverged from solo serial run:\n  got  %s\n  want %s", at, fp, solo[at])
							}
						}
						mu.Unlock()
					default:
						t.Errorf("answer is neither 200 nor 429: %d %s", resp.StatusCode, data)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for at, ok := range covered {
		if !ok {
			t.Errorf("cycle %d in no answer", at)
		}
	}
	if got := s.cfg.Obs.Counter("serve_cycles_total").Value(); got != cycles {
		t.Fatalf("serve_cycles_total = %d, want %d", got, cycles)
	}
	t.Logf("%d requests answered 200, %d answered 429", requests, s.cfg.Obs.Counter("serve_backpressure_rejections_total").Value())
}
