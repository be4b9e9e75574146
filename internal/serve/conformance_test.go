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

type sessionCombo struct {
	chunking bool
	deadline string // per-session cycle watchdog; "1ns" poisons every cycle
}

// driveSession creates a session, runs the workload in several batch
// requests, and verifies every per-cycle fingerprint against the solo
// serial baseline.
func driveSession(url string, c sessionCombo, p cypress.Params, cycles, batch int, baseline []string) error {
	var created CreateResult
	err := postJSON("POST", url+"/sessions", CreateRequest{
		Task: "cypress", Params: &p, Deadline: c.deadline,
	}, &created)
	if err != nil {
		return fmt.Errorf("%+v: create: %w", c, err)
	}
	base := url + "/sessions/" + created.ID
	var fps []string
	for len(fps) < cycles {
		n := batch
		if rem := cycles - len(fps); rem < n {
			n = rem
		}
		var res RunResult
		if err := postJSON("POST", base+"/run", RunRequest{Cycles: n, Chunking: c.chunking}, &res); err != nil {
			return fmt.Errorf("%+v: run: %w", c, err)
		}
		if res.Cycles != n {
			return fmt.Errorf("%+v: lost cycles: ran %d of %d", c, res.Cycles, n)
		}
		fps = append(fps, res.Fingerprints...)
	}
	if len(fps) != len(baseline) {
		return fmt.Errorf("%+v: %d fingerprints vs %d baseline", c, len(fps), len(baseline))
	}
	for i := range fps {
		if fps[i] != baseline[i] {
			return fmt.Errorf("%+v: cycle %d fingerprint diverged from solo serial run:\n  got  %s\n  want %s",
				c, i, fps[i], baseline[i])
		}
	}
	var audit struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	if err := postJSON("GET", base+"/audit", nil, &audit); err != nil {
		return fmt.Errorf("%+v: audit: %w", c, err)
	}
	if !audit.OK {
		return fmt.Errorf("%+v: audit failed: %s", c, audit.Error)
	}
	return postJSON("DELETE", base, nil, nil)
}

// TestConcurrentSessionsByteIdentical is the serving conformance test (run
// under -race in CI): under each policy, 8 concurrent sessions over one
// shared 4-slot worker budget, with and without mid-stream
// AddProductionRuntime chunking, including sessions whose 1ns deadline
// poisons every parallel cycle onto the serial-fallback path — every
// session's per-cycle conflict-set fingerprints must be byte-identical to a
// solo serial run of the same task.
func TestConcurrentSessionsByteIdentical(t *testing.T) {
	const cycles, batch = 24, 7
	p := *cypressParams(40, cycles, 4, 11)
	baseline := map[bool][]string{
		false: soloFingerprints(t, p, cycles, false),
		true:  soloFingerprints(t, p, cycles, true),
	}
	combos := []sessionCombo{
		{false, ""}, {true, ""}, {false, ""}, {true, ""}, {false, ""}, {true, ""},
		{true, "1ns"}, {false, "1ns"},
	}
	for _, pol := range []prun.Policy{prun.MultiQueue, prun.WorkStealing} {
		t.Run(pol.String(), func(t *testing.T) {
			s, ts := testServer(t, Config{Workers: 4, Processes: 4, Policy: pol, QueueDepth: 8, Obs: obs.New()})
			var wg sync.WaitGroup
			errs := make(chan error, len(combos))
			for _, c := range combos {
				wg.Add(1)
				go func(c sessionCombo) {
					defer wg.Done()
					errs <- driveSession(ts.URL, c, p, cycles, batch, baseline[c.chunking])
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
			if got := s.cfg.Obs.Counter("serve_cycles_total").Value(); got != uint64(len(combos)*cycles) {
				t.Fatalf("serve_cycles_total = %d, want %d (no lost cycles)", got, len(combos)*cycles)
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
