package benchkit

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"soarpsme/internal/obs"
	"soarpsme/internal/prun"
	"soarpsme/internal/serve"
	"soarpsme/internal/tasks/cypress"
)

// serveCall is a minimal JSON client for the serving bench; it retries 429
// with the server's Retry-After hint so backpressure costs time, not cycles.
func serveCall(b *testing.B, method, url string, body, out any) {
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			data, err := json.Marshal(body)
			if err != nil {
				b.Fatal(err)
			}
			rd = bytes.NewReader(data)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 100 {
			time.Sleep(serve.RetryAfter(resp))
			continue
		}
		if resp.StatusCode >= 300 {
			b.Fatalf("%s %s: %d %s", method, url, resp.StatusCode, data)
		}
		if out != nil && json.Unmarshal(data, out) != nil {
			b.Fatalf("%s %s: bad JSON %q", method, url, data)
		}
		return
	}
}

// serveBench measures end-to-end serving throughput: each op boots the full
// session lifecycle for `sessions` concurrent cypress sessions — create,
// `cycles` match cycles in batched /run requests (chunking on), delete —
// through the real HTTP handler stack. Reported extra: cycles/sec aggregate
// across sessions, the headline serving number.
func serveBench(sessions, cycles int, pol prun.Policy) func(b *testing.B) {
	return func(b *testing.B) {
		srv := serve.New(serve.Config{
			Processes:   2,
			Policy:      pol,
			QueueDepth:  8,
			MaxSessions: 2 * sessions,
			Obs:         obs.New(),
		})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Close()

		p := cypress.Params{Productions: 30, AvgCEs: 8, Chunks: 4, ChunkCEs: 12,
			Alphabet: 6, Cycles: cycles, Seed: 23}
		const batch = 8
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			done := make(chan struct{}, sessions)
			for s := 0; s < sessions; s++ {
				go func() {
					defer func() { done <- struct{}{} }()
					var created serve.CreateResult
					serveCall(b, "POST", ts.URL+"/sessions", serve.CreateRequest{Task: "cypress", Params: &p}, &created)
					base := ts.URL + "/sessions/" + created.ID
					for run := 0; run < cycles; run += batch {
						n := batch
						if rem := cycles - run; rem < n {
							n = rem
						}
						var res serve.RunResult
						serveCall(b, "POST", base+"/run", serve.RunRequest{Cycles: n, Chunking: true}, &res)
						if res.Cycles != n {
							b.Errorf("lost cycles: ran %d of %d", res.Cycles, n)
							return
						}
					}
					serveCall(b, "DELETE", base, nil, nil)
				}()
			}
			for s := 0; s < sessions; s++ {
				<-done
			}
		}
		b.StopTimer()
		total := float64(b.N * sessions * cycles)
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(total/secs, "cycles/sec")
		}
		b.ReportMetric(total/float64(b.N), "cycles/op")
	}
}

// serveIngestBench measures the batched WM-delta ingest path: `sessions`
// concurrent program sessions each replay the canonical fixed delta stream
// (serve.IngestScript) chopped into `batch`-delta /run requests, each
// request ingested as one match cycle. Because the stream is identical at
// every batch size, deltas/sec — the sustained ingest bandwidth — is the
// headline, with cycles/sec alongside as the request-overhead view.
// With durable set the server journals every /run into a per-session
// fsync'd write-ahead log (serve.Config.DataDir) — the WALIngest pair
// measures exactly that overhead, gated intra-run by benchjson's gate table.
func serveIngestBench(sessions, deltas, batch int, pol prun.Policy, durable bool) func(b *testing.B) {
	return func(b *testing.B) {
		dataDir := ""
		if durable {
			dataDir = b.TempDir()
		}
		srv := serve.New(serve.Config{
			Processes:   2,
			Policy:      pol,
			QueueDepth:  8,
			MaxSessions: 2 * sessions,
			Obs:         obs.New(),
			DataDir:     dataDir,
		})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Close()

		batches := serve.ChopScript(serve.IngestScript(deltas), batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			done := make(chan struct{}, sessions)
			for s := 0; s < sessions; s++ {
				go func() {
					defer func() { done <- struct{}{} }()
					var created serve.CreateResult
					serveCall(b, "POST", ts.URL+"/sessions", serve.CreateRequest{Program: serve.IngestProgram}, &created)
					base := ts.URL + "/sessions/" + created.ID
					var ids []uint64
					for cyc, ops := range batches {
						body, err := serve.IngestBatchJSON(ops, ids)
						if err != nil {
							b.Errorf("ingest cycle %d: %v", cyc, err)
							return
						}
						var res serve.RunResult
						serveCall(b, "POST", base+"/run", serve.RunRequest{Deltas: body}, &res)
						if res.Cycles != 1 || res.BadDeltas > 0 || res.Failed > 0 {
							b.Errorf("ingest cycle %d: cycles=%d bad=%d failed=%d", cyc, res.Cycles, res.BadDeltas, res.Failed)
							return
						}
						ids = append(ids, res.Added...)
					}
					serveCall(b, "DELETE", base, nil, nil)
				}()
			}
			for s := 0; s < sessions; s++ {
				<-done
			}
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N*sessions*len(batches))/secs, "cycles/sec")
			b.ReportMetric(float64(b.N*sessions*deltas)/secs, "deltas/sec")
		}
		b.ReportMetric(float64(sessions*deltas), "deltas/op")
	}
}

// ServeCases is the serving-layer bench: concurrent cypress sessions driven
// through cmd/psmed's HTTP stack (internal/serve) over one shared worker
// budget — the serving counterpart of the in-process replay matrix — plus
// the batched-ingest path at batch sizes 1 and 8 over the same delta
// stream, so the per-request overhead batching amortizes is measured.
func ServeCases() []Case {
	return []Case{
		{Name: "Serve/4x30/work-stealing", Bench: serveBench(4, 30, prun.WorkStealing)},
		{Name: "Serve/4x30/single-queue", Bench: serveBench(4, 30, prun.SingleQueue)},
		{Name: "ServeIngest/4x480/batch=1", Bench: serveIngestBench(4, 480, 1, prun.WorkStealing, false)},
		{Name: "ServeIngest/4x480/batch=8", Bench: serveIngestBench(4, 480, 8, prun.WorkStealing, false)},
	}
}
