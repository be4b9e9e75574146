package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"soarpsme/internal/obs"
	"soarpsme/internal/snapshot"
	"soarpsme/internal/tasks/cypress"
)

// crashableServer boots a durable server whose Close is NOT registered as
// cleanup: tests "crash" it by closing only the listener, leaving the
// on-disk state exactly as a killed process would.
func crashableServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2, Processes: 2, DataDir: dir})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// seedSession creates a durable program session and pushes some state into
// it: one delta batch and one run to quiescence, both WAL-journalled.
func seedSession(t *testing.T, url, id string) {
	t.Helper()
	var created CreateResult
	if code, _ := doJSON(t, "POST", url+"/sessions", CreateRequest{ID: id, Program: serveProgSrc}, &created); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if created.ID != id {
		t.Fatalf("create: got id %q, want %q", created.ID, id)
	}
	if dres := ingest(t, url+"/sessions/"+id,
		DeltaJSON{Op: "add", Class: "fact", Fields: []any{1}},
		DeltaJSON{Op: "add", Class: "fact", Fields: []any{2}},
	); dres.Failed != 0 {
		t.Fatalf("deltas: %+v", dres)
	}
	var rres RunResult
	if code, _ := doJSON(t, "POST", url+"/sessions/"+id+"/run", RunRequest{Cycles: 10, Seq: 1}, &rres); code != http.StatusOK || rres.Fired != 2 {
		t.Fatalf("run: code=%d %+v", code, rres)
	}
}

// sessionState fetches the stats and conflict set of a session.
func sessionState(t *testing.T, url, id string) (sessionInfo, csView) {
	t.Helper()
	var info sessionInfo
	if code, _ := doJSON(t, "GET", url+"/sessions/"+id, nil, &info); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var cs csResponse
	if code, _ := doJSON(t, "GET", url+"/sessions/"+id+"/conflict-set", nil, &cs); code != http.StatusOK {
		t.Fatalf("conflict-set: %d", code)
	}
	return info, cs.view()
}

// TestRestoreAfterCrash is the headline durability property: kill a
// backend without any drain, restore the session elsewhere from
// image+WAL, and the restored session is byte-identical and still serves.
func TestRestoreAfterCrash(t *testing.T) {
	dir := t.TempDir()
	_, tsA := crashableServer(t, dir)
	seedSession(t, tsA.URL, "dur1")
	wantInfo, wantFp := sessionState(t, tsA.URL, "dur1")
	tsA.Close() // crash: no drain, no snapshot

	_, tsB := testServer(t, Config{Workers: 2, Processes: 2, DataDir: dir})
	var rr RestoreResult
	if code, _ := doJSON(t, "POST", tsB.URL+"/sessions/dur1/restore", nil, &rr); code != http.StatusOK {
		t.Fatalf("restore: %d", code)
	}
	// Genesis image holds the empty session; the delta batch and the run
	// are both replayed from the WAL.
	if rr.Replayed != 2 {
		t.Fatalf("restore replayed %d records, want 2 (%+v)", rr.Replayed, rr)
	}
	gotInfo, gotFp := sessionState(t, tsB.URL, "dur1")
	if gotFp != wantFp {
		t.Fatalf("fingerprint after restore\n got %s\nwant %s", gotFp, wantFp)
	}
	if gotInfo.Cycles != wantInfo.Cycles || gotInfo.Fired != wantInfo.Fired ||
		gotInfo.WM != wantInfo.WM || gotInfo.Conflict != wantInfo.Conflict {
		t.Fatalf("stats after restore\n got %+v\nwant %+v", gotInfo, wantInfo)
	}

	// The restored session keeps serving — and keeps journalling.
	if dres := ingest(t, tsB.URL+"/sessions/dur1", DeltaJSON{Op: "add", Class: "fact", Fields: []any{3}}); dres.Failed != 0 {
		t.Fatalf("post-restore deltas: %+v", dres)
	}
}

// TestRestoreConflicts pins the 409 contract: restoring into a live
// session id is refused, and a missing image is a 404.
func TestRestoreConflicts(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{Workers: 2, Processes: 2, DataDir: dir, Obs: obs.New()})
	seedSession(t, ts.URL, "live1")

	if code, _ := doJSON(t, "POST", ts.URL+"/sessions/live1/restore", nil, nil); code != http.StatusConflict {
		t.Fatalf("restore into live session: %d, want 409", code)
	}
	// Creating over a live id is refused the same way.
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{ID: "live1", Program: serveProgSrc}, nil); code != http.StatusConflict {
		t.Fatalf("create over live session: %d, want 409", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions/no-such/restore", nil, nil); code != http.StatusNotFound {
		t.Fatalf("restore of unknown session: %d, want 404", code)
	}

	// A sealed image with no engine in it, or with cypress params the
	// generator is not defined for, is a failed restore — a 500 that counts —
	// not a nil dereference or a division by zero.
	for id, img := range map[string]*sessionImage{
		"hollow": {ID: "hollow"},
		"badgen": {ID: "badgen", Create: CreateRequest{Task: "cypress", Params: &cypress.Params{AvgCEs: 1}}},
	} {
		data, err := snapshot.Seal(img)
		if err != nil {
			t.Fatal(err)
		}
		os.MkdirAll(filepath.Join(dir, id), 0o755)
		if err := os.WriteFile(filepath.Join(dir, id, "image.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		failed := s.cfg.Obs.Counter("serve_restore_failures_total").Value()
		if _, code, err := s.restoreSession(id); err == nil || code != http.StatusInternalServerError {
			t.Fatalf("restore of %s: code=%d err=%v, want 500 and an error", id, code, err)
		}
		if got := s.cfg.Obs.Counter("serve_restore_failures_total").Value(); got != failed+1 {
			t.Fatalf("restore of %s: serve_restore_failures_total %d -> %d, want +1", id, failed, got)
		}
	}

	// A restore that panics past its reservation is not "in progress"
	// afterwards: the second attempt gets as far as the first.
	s.testHookReserved = func() { panic("rebuild failed past the reservation") }
	for i := 0; i < 2; i++ {
		func() {
			defer func() { recover() }()
			_, code, err := s.restoreSession("hollow")
			t.Errorf("restore %d: the reserved hook did not run between reserve and adopt: code=%d err=%v", i, code, err)
		}()
	}
}

// TestSnapshotTruncatesWAL: an on-demand snapshot bakes the journal into
// the image; a subsequent restore replays nothing.
func TestSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	_, tsA := crashableServer(t, dir)
	seedSession(t, tsA.URL, "tr1")

	walPath := filepath.Join(dir, "tr1", "wal.jsonl")
	if fi, err := os.Stat(walPath); err != nil || fi.Size() == 0 {
		t.Fatalf("wal before snapshot: fi=%v err=%v", fi, err)
	}
	var sres SnapshotResult
	if code, _ := doJSON(t, "POST", tsA.URL+"/sessions/tr1/snapshot", nil, &sres); code != http.StatusOK || sres.Bytes == 0 {
		t.Fatalf("snapshot: code=%d %+v", code, sres)
	}
	if fi, err := os.Stat(walPath); err != nil || fi.Size() != 0 {
		t.Fatalf("wal not truncated by snapshot: fi=%v err=%v", fi, err)
	}
	_, wantFp := sessionState(t, tsA.URL, "tr1")
	tsA.Close()

	_, tsB := testServer(t, Config{Workers: 2, Processes: 2, DataDir: dir})
	var rr RestoreResult
	if code, _ := doJSON(t, "POST", tsB.URL+"/sessions/tr1/restore", nil, &rr); code != http.StatusOK || rr.Replayed != 0 {
		t.Fatalf("restore: code=%d %+v, want 0 replayed", code, rr)
	}
	if _, gotFp := sessionState(t, tsB.URL, "tr1"); gotFp != wantFp {
		t.Fatalf("fingerprint after snapshot restore\n got %s\nwant %s", gotFp, wantFp)
	}
}

// TestWALTornTailTolerated: a crash mid-append leaves a torn last line;
// restore discards it and replays the intact prefix.
func TestWALTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	_, tsA := crashableServer(t, dir)
	seedSession(t, tsA.URL, "torn1")
	_, wantFp := sessionState(t, tsA.URL, "torn1")
	tsA.Close()

	walPath := filepath.Join(dir, "torn1", "wal.jsonl")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"crc":12345,"rec":{"cy`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, tsB := testServer(t, Config{Workers: 2, Processes: 2, DataDir: dir})
	var rr RestoreResult
	if code, _ := doJSON(t, "POST", tsB.URL+"/sessions/torn1/restore", nil, &rr); code != http.StatusOK || rr.Replayed != 2 {
		t.Fatalf("restore with torn tail: code=%d %+v", code, rr)
	}
	if _, gotFp := sessionState(t, tsB.URL, "torn1"); gotFp != wantFp {
		t.Fatalf("fingerprint after torn-tail restore\n got %s\nwant %s", gotFp, wantFp)
	}
}

// TestWALCorruptMidFileRefused: only the journal's last line may be torn.
// A bad line with records after it fails the restore with an error naming
// the line, instead of replaying the prefix and dropping acknowledged
// records. A torn tail is cut off at restore, so the records journalled
// after it replay on the next restore.
func TestWALCorruptMidFileRefused(t *testing.T) {
	dir := t.TempDir()
	_, tsA := crashableServer(t, dir)
	seedSession(t, tsA.URL, "mid1")
	tsA.Close()
	walPath := filepath.Join(dir, "mid1", "wal.jsonl")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[strings.Index(string(bad), `"crc":`)+6]++ // the first record's checksum
	if err := os.WriteFile(walPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	s, tsB := testServer(t, Config{Workers: 2, Processes: 2, DataDir: dir})
	var rr RestoreResult
	if code, _ := doJSON(t, "POST", tsB.URL+"/sessions/mid1/restore", nil, &rr); code != http.StatusInternalServerError {
		t.Fatalf("restore over a corrupt first record: code=%d %+v, want 500", code, rr)
	}
	if _, _, err := s.restoreSession("mid1"); !errors.Is(err, errWALCorrupt) || !strings.Contains(err.Error(), "wal.jsonl line 1:") {
		t.Fatalf("restore over a corrupt first record: %v, want errWALCorrupt naming line 1", err)
	}

	// Torn tail, restore, one more acknowledged run, crash: the next
	// restore replays all three records.
	if err := os.WriteFile(walPath, append(data, `{"crc":12345,"rec":{"cy`...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, tsC := crashableServer(t, dir)
	if code, _ := doJSON(t, "POST", tsC.URL+"/sessions/mid1/restore", nil, &rr); code != http.StatusOK || rr.Replayed != 2 {
		t.Fatalf("restore with a torn tail: code=%d %+v", code, rr)
	}
	if dres := ingest(t, tsC.URL+"/sessions/mid1", DeltaJSON{Op: "add", Class: "fact", Fields: []any{3}}); dres.Failed != 0 {
		t.Fatalf("run after the torn-tail restore: %+v", dres)
	}
	_, wantFp := sessionState(t, tsC.URL, "mid1")
	tsC.Close()
	_, tsD := testServer(t, Config{Workers: 2, Processes: 2, DataDir: dir})
	if code, _ := doJSON(t, "POST", tsD.URL+"/sessions/mid1/restore", nil, &rr); code != http.StatusOK || rr.Replayed != 3 {
		t.Fatalf("restore after a run appended past the torn tail: code=%d %+v", code, rr)
	}
	if _, gotFp := sessionState(t, tsD.URL, "mid1"); gotFp != wantFp {
		t.Fatalf("fingerprint\n got %s\nwant %s", gotFp, wantFp)
	}
}

// TestRunSeqIdempotent: retrying the last Seq returns the cached result
// without re-running — before and after a failover restore.
func TestRunSeqIdempotent(t *testing.T) {
	dir := t.TempDir()
	_, tsA := crashableServer(t, dir)
	var created CreateResult
	if code, _ := doJSON(t, "POST", tsA.URL+"/sessions", CreateRequest{ID: "seq1", Program: serveProgSrc}, &created); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	req := RunRequest{Cycles: 5, Seq: 7, Deltas: []DeltaJSON{{Op: "add", Class: "fact", Fields: []any{1}}}}
	var first RunResult
	if code, _ := doJSON(t, "POST", tsA.URL+"/sessions/seq1/run", req, &first); code != http.StatusOK || first.Cached {
		t.Fatalf("first run: code=%d %+v", code, first)
	}
	info1, _ := sessionState(t, tsA.URL, "seq1")

	var retry RunResult
	if code, _ := doJSON(t, "POST", tsA.URL+"/sessions/seq1/run", req, &retry); code != http.StatusOK {
		t.Fatalf("retry run: %d", code)
	}
	if !retry.Cached || retry.Fired != first.Fired || retry.Cycles != first.Cycles {
		t.Fatalf("retry not served from cache: first=%+v retry=%+v", first, retry)
	}
	if info2, _ := sessionState(t, tsA.URL, "seq1"); info2.Cycles != info1.Cycles || info2.Fired != info1.Fired {
		t.Fatalf("cached retry advanced the session: %+v -> %+v", info1, info2)
	}
	if code, _ := doJSON(t, "POST", tsA.URL+"/sessions/seq1/run", RunRequest{Cycles: 1, Seq: -2}, nil); code != http.StatusBadRequest {
		t.Fatalf("negative seq: %d, want 400", code)
	}
	tsA.Close()

	// The watermark rides the WAL: after a crash-restore, the same retry
	// is still answered from cache.
	_, tsB := testServer(t, Config{Workers: 2, Processes: 2, DataDir: dir})
	if code, _ := doJSON(t, "POST", tsB.URL+"/sessions/seq1/restore", nil, nil); code != http.StatusOK {
		t.Fatalf("restore: %d", code)
	}
	var after RunResult
	if code, _ := doJSON(t, "POST", tsB.URL+"/sessions/seq1/run", req, &after); code != http.StatusOK {
		t.Fatalf("post-restore retry: %d", code)
	}
	if !after.Cached || after.Fired != first.Fired {
		t.Fatalf("post-restore retry not cached: %+v", after)
	}
}

// TestFailedRequestKeepsWatermark: a request that fails produces no result
// and does not move the idempotency watermark, so its retry runs again and
// fails again instead of getting the previous request's result — live, and
// after a crash-restore whose WAL replay runs the same path.
func TestFailedRequestKeepsWatermark(t *testing.T) {
	dir := t.TempDir()
	_, tsA := crashableServer(t, dir)
	if code, _ := doJSON(t, "POST", tsA.URL+"/sessions", CreateRequest{ID: "seq2", Program: serveProgSrc}, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	good := RunRequest{Seq: 1, Deltas: []DeltaJSON{{Op: "add", Class: "fact", Fields: []any{1}}}}
	var first RunResult
	if code, _ := doJSON(t, "POST", tsA.URL+"/sessions/seq2/run", good, &first); code != http.StatusOK || len(first.Added) != 1 {
		t.Fatalf("Seq 1: code=%d %+v", code, first)
	}
	bad := RunRequest{Seq: 2, Deltas: []DeltaJSON{{Op: "bogus"}}}
	check := func(url, when string) {
		t.Helper()
		for try := 1; try <= 2; try++ {
			var res RunResult
			if code, _ := doJSON(t, "POST", url+"/sessions/seq2/run", bad, &res); code != http.StatusBadRequest {
				t.Fatalf("%s: failed Seq 2, try %d: code=%d %+v, want 400", when, try, code, res)
			}
		}
		var again RunResult
		if code, _ := doJSON(t, "POST", url+"/sessions/seq2/run", good, &again); code != http.StatusOK || !again.Cached ||
			len(again.Added) != 1 || again.Added[0] != first.Added[0] {
			t.Fatalf("%s: retry of Seq 1: code=%d %+v, want the cached %+v", when, code, again, first)
		}
	}
	check(tsA.URL, "live")
	tsA.Close()

	_, tsB := testServer(t, Config{Workers: 2, Processes: 2, DataDir: dir})
	if code, _ := doJSON(t, "POST", tsB.URL+"/sessions/seq2/restore", nil, nil); code != http.StatusOK {
		t.Fatalf("restore: %d", code)
	}
	check(tsB.URL, "after restore")
}

// TestClientFailoverMidStream is the contract psmeload's client-driven
// failover rests on. Two servers share a data directory; a cypress session
// on A crashes after applying a request whose response the client never
// saw. Restored on B, the resent request (same Seq) is answered from cache,
// and every cycle the client was given, before and after the crash, has
// the solo serial run's fingerprint. The create body carries the retired
// "policy" field, which the server ignores like any other unknown field.
func TestClientFailoverMidStream(t *testing.T) {
	const cycles, batch, crashAt = 40, 5, 3 // the crash loses the answer to Seq 3
	p := cypressParams(30, cycles, 3, 5)
	want := soloFingerprints(t, *p, cycles, true)
	dir := t.TempDir()
	_, tsA := crashableServer(t, dir)
	_, tsB := testServer(t, Config{Workers: 2, Processes: 2, DataDir: dir})
	create := map[string]any{"id": "fo1", "task": "cypress", "params": p, "policy": "single-queue"}
	if code, _ := doJSON(t, "POST", tsA.URL+"/sessions", create, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	url := tsA.URL
	var got []string
	for seq := int64(1); len(got) < cycles; seq++ {
		req := RunRequest{Cycles: batch, Chunking: true, Seq: seq}
		var res RunResult
		if code, _ := doJSON(t, "POST", url+"/sessions/fo1/run", req, &res); code != http.StatusOK {
			t.Fatalf("run seq %d: %d", seq, code)
		}
		if seq == crashAt {
			tsA.Close() // crash: the answer is lost, no drain, no snapshot
			url = tsB.URL
			if code, _ := doJSON(t, "POST", url+"/sessions/fo1/restore", nil, nil); code != http.StatusOK {
				t.Fatalf("restore on B: %d", code)
			}
			if code, _ := doJSON(t, "POST", url+"/sessions/fo1/run", req, &res); code != http.StatusOK || !res.Cached {
				t.Fatalf("resent seq %d on B: code=%d cached=%v, want the cached answer", seq, code, res.Cached)
			}
		}
		got = append(got, res.Fingerprints...)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("fingerprints across the failover differ from the solo serial run\n got %q\nwant %q", got, want)
	}
}

// TestParentDataDirRestores restores a copy of testdata/parent-data (see
// its README): a cypress session whose create request carries the retired
// "policy" field, and a program session whose WAL holds the cycles-0 run
// records POST /deltas journaled. Each must then serve what an
// uninterrupted run serves: pol the solo serial run's fingerprints, dlt the
// state and next cycles of a session given the same batches through /run.
func TestParentDataDirRestores(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"pol", "dlt"} {
		if err := os.Mkdir(filepath.Join(dir, id), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range []string{"image.json", "wal.jsonl"} {
			b, err := os.ReadFile(filepath.Join("testdata", "parent-data", id, f))
			if err == nil {
				err = os.WriteFile(filepath.Join(dir, id, f), b, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	_, ts := testServer(t, Config{Workers: 2, Processes: 2, DataDir: dir})
	for _, id := range []string{"pol", "dlt"} {
		var rr RestoreResult
		if code, _ := doJSON(t, "POST", ts.URL+"/sessions/"+id+"/restore", nil, &rr); code != http.StatusOK || rr.Replayed == 0 {
			t.Fatalf("restore %s: code=%d %+v", id, code, rr)
		}
	}

	want := soloFingerprints(t, *cypressParams(12, 30, 2, 5), 30, true)
	var res RunResult
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions/pol/run", RunRequest{Cycles: 10, Chunking: true, Seq: 3}, &res); code != http.StatusOK {
		t.Fatalf("pol run: %d", code)
	}
	if !slices.Equal(res.Fingerprints, want[20:]) {
		t.Fatalf("pol after restore\n got %q\nwant %q", res.Fingerprints, want[20:])
	}

	_, tsRef := testServer(t, Config{Workers: 2, Processes: 2})
	if code, _ := doJSON(t, "POST", tsRef.URL+"/sessions", CreateRequest{ID: "dlt", Program: mixProgSrc}, nil); code != http.StatusCreated {
		t.Fatalf("reference create: %d", code)
	}
	ref := tsRef.URL + "/sessions/dlt"
	ingest(t, ref, addFact(1), addFact(2), addFact(3))
	doJSON(t, "POST", ref+"/run", RunRequest{Cycles: 2}, nil)
	ingest(t, ref, addFact(4), DeltaJSON{Op: "remove", ID: 1})
	ingest(t, ref, DeltaJSON{Op: "remove", ID: 1 << 40}, addFact(5))
	doJSON(t, "POST", ref+"/run", RunRequest{Cycles: 1}, nil)
	wantInfo, wantFp := sessionState(t, tsRef.URL, "dlt")
	// What the parent build answered after its last request.
	if parent := "wm=7 cs=6 note(2) note(3) note(6) note(7) pair(3,4) pair(7,8)"; wantFp.Text != parent {
		t.Fatalf("reference conflict set %s, the parent served %s", wantFp.Text, parent)
	}
	gotInfo, gotFp := sessionState(t, ts.URL, "dlt")
	if gotFp != wantFp || gotInfo.Cycles != wantInfo.Cycles || gotInfo.Fired != wantInfo.Fired ||
		gotInfo.WM != wantInfo.WM || gotInfo.BadDeltas != wantInfo.BadDeltas {
		t.Fatalf("dlt after restore\n got %+v %s\nwant %+v %s", gotInfo, gotFp, wantInfo, wantFp)
	}
	next := RunRequest{Deltas: []DeltaJSON{addFact(9), {Op: "remove", ID: 2}}, Cycles: 10}
	var got, wantNext RunResult
	doJSON(t, "POST", ts.URL+"/sessions/dlt/run", next, &got)
	doJSON(t, "POST", ref+"/run", next, &wantNext)
	if len(got.Fingerprints) < 2 || !slices.Equal(got.Fingerprints, wantNext.Fingerprints) {
		t.Fatalf("dlt next cycles\n got %q\nwant %q", got.Fingerprints, wantNext.Fingerprints)
	}
}

// TestDrainToSnapshotOnClose: a graceful shutdown snapshots every durable
// session, so the next owner restores instantly with no WAL replay.
func TestDrainToSnapshotOnClose(t *testing.T) {
	dir := t.TempDir()
	sA := New(Config{Workers: 2, Processes: 2, DataDir: dir})
	tsA := httptest.NewServer(sA.Handler())
	seedSession(t, tsA.URL, "drain1")
	_, wantFp := sessionState(t, tsA.URL, "drain1")
	tsA.Close()
	sA.Close() // graceful: drains to snapshot

	if fi, err := os.Stat(filepath.Join(dir, "drain1", "wal.jsonl")); err != nil || fi.Size() != 0 {
		t.Fatalf("wal after drain: fi=%v err=%v", fi, err)
	}
	_, tsB := testServer(t, Config{Workers: 2, Processes: 2, DataDir: dir})
	var rr RestoreResult
	if code, _ := doJSON(t, "POST", tsB.URL+"/sessions/drain1/restore", nil, &rr); code != http.StatusOK || rr.Replayed != 0 {
		t.Fatalf("restore after drain: code=%d %+v", code, rr)
	}
	if _, gotFp := sessionState(t, tsB.URL, "drain1"); gotFp != wantFp {
		t.Fatalf("fingerprint after drain restore\n got %s\nwant %s", gotFp, wantFp)
	}
}

// TestDeleteRemovesDurableState: deleting a session removes its directory,
// so a later restore of the id correctly 404s — and a DELETE that races
// Server.Close retires the session once between them.
func TestDeleteRemovesDurableState(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{Workers: 2, Processes: 2, DataDir: dir})
	seedSession(t, ts.URL, "del1")
	if code, _ := doJSON(t, "DELETE", ts.URL+"/sessions/del1", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "del1")); !os.IsNotExist(err) {
		t.Fatalf("durable dir survived delete: %v", err)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions/del1/restore", nil, nil); code != http.StatusNotFound {
		t.Fatalf("restore after delete: %d, want 404", code)
	}

	// The race: Close has collected the session and waits out a running
	// request when the DELETE arrives. The test holds a reference of its own
	// to the session's image, so a second release would show as a count of 0.
	seedSession(t, ts.URL, "del2")
	if _, _, err := s.images.Get(serveProgSrc, s.engineConfig().Rete); err != nil {
		t.Fatal(err)
	}
	ss := liveSession(s, "del2")
	started, release := make(chan struct{}), make(chan struct{})
	go ss.submit(nil, func() (any, error) { close(started); <-release; return nil, nil })
	<-started
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	for !ss.gone.Load() {
		time.Sleep(time.Millisecond)
	}
	deleted := make(chan int, 1)
	go func() {
		req := httptest.NewRequest("DELETE", "/sessions/del2", nil)
		req.SetPathValue("id", "del2")
		rec := httptest.NewRecorder()
		s.handleDelete(rec, req) // past the drain check, as a request already in its handler is
		deleted <- rec.Code
	}()
	for len(s.live()) > 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-closed
	if code := <-deleted; code != http.StatusOK {
		t.Fatalf("delete racing close: %d", code)
	}
	if st := s.ImageCacheStats(); st.Sessions != 1 {
		t.Fatalf("image references after delete racing close: %+v, want the test's own 1", st)
	}
	// Close got there first and kept the state; the DELETE still deletes it.
	if _, err := os.Stat(filepath.Join(dir, "del2")); !os.IsNotExist(err) {
		t.Fatalf("durable dir survived a delete that answered 200: %v", err)
	}
}

// TestPanicUnderTurnFailsStop: a request that panics while it holds the turn
// gives the turn and its slot back, but the engine it leaves behind is not
// served from again and not saved: the session answers 410, a drain keeps
// the image and journal it finds, and those restore the session with the
// journaled request replayed.
func TestPanicUnderTurnFailsStop(t *testing.T) {
	dir := t.TempDir()
	sA, tsA := crashableServer(t, dir)
	seedSession(t, tsA.URL, "brk1")
	before, _ := sessionState(t, tsA.URL, "brk1")
	ss := liveSession(sA, "brk1")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic under the turn did not reach the caller")
			}
		}()
		ss.submit(nil, func() (any, error) {
			ss.runLogged(&RunRequest{Deltas: []DeltaJSON{{Op: "add", Class: "fact", Fields: []any{3}}}})
			panic("bug in serve")
		})
	}()
	if len(ss.turn) != 0 || len(ss.admit) != 0 {
		t.Fatalf("panicked request kept turn=%d admit=%d", len(ss.turn), len(ss.admit))
	}
	if code, _ := doJSON(t, "POST", tsA.URL+"/sessions/brk1/run", RunRequest{Cycles: 1}, nil); code != http.StatusGone {
		t.Fatalf("run on a broken session: code=%d, want 410", code)
	}
	if code, _ := doJSON(t, "GET", tsA.URL+"/sessions/brk1", nil, nil); code != http.StatusGone {
		t.Fatalf("stats on a broken session: code=%d, want 410", code)
	}

	image, err := os.ReadFile(filepath.Join(dir, "brk1", "image.json"))
	if err != nil {
		t.Fatal(err)
	}
	tsA.Close()
	sA.Close()
	if after, _ := os.ReadFile(filepath.Join(dir, "brk1", "image.json")); !bytes.Equal(after, image) {
		t.Fatal("drain snapshotted a broken session over its last good image")
	}

	_, tsB := testServer(t, Config{Workers: 2, Processes: 2, DataDir: dir})
	var rr RestoreResult
	if code, _ := doJSON(t, "POST", tsB.URL+"/sessions/brk1/restore", nil, &rr); code != http.StatusOK || rr.Replayed != 3 {
		t.Fatalf("restore of a broken session: code=%d %+v, want 3 records replayed", code, rr)
	}
	if after, _ := sessionState(t, tsB.URL, "brk1"); after.Cycles != before.Cycles+1 || after.WM != before.WM+1 {
		t.Fatalf("restored session: %+v, want one cycle and one wme past %+v", after, before)
	}
}

// exciseProgSrc's once excises a rule of its own program. An uploaded
// program compiles into the shared base image, which no excise reaches, so
// that excise fails after once's cycle has fired and matched.
const exciseProgSrc = `
(literalize go)
(literalize item n)
(startup (make item ^n 1) (make item ^n 2) (make go))
(p once (go) --> (remove 1) (excise other))
(p other (item ^n <n>) --> (remove 1))
`

// TestFailedExciseDoesNotWedgeSession: a /run whose step fails to excise
// answers with the error, but the step's cycle is closed and the excise is
// not retried, so the next /run succeeds; a restore that replays both from
// the WAL reproduces the session.
func TestFailedExciseDoesNotWedgeSession(t *testing.T) {
	dir := t.TempDir()
	sA, tsA := crashableServer(t, dir)
	if code, _ := doJSON(t, "POST", tsA.URL+"/sessions", CreateRequest{ID: "xc", Program: exciseProgSrc}, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	base := tsA.URL + "/sessions/xc"
	if code, _ := doJSON(t, "POST", base+"/run", RunRequest{Cycles: 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("run excising a base production: code=%d, want 400", code)
	}
	var res RunResult
	if code, _ := doJSON(t, "POST", base+"/run", RunRequest{Cycles: 1}, &res); code != http.StatusOK || res.Fired != 1 || res.FirstCycle != 1 {
		t.Fatalf("run after the failed excise: code=%d %+v, want cycle 1 fired", code, res)
	}
	want, wantFp := sessionState(t, tsA.URL, "xc")
	if want.Cycles != 2 || want.Fired != 2 {
		t.Fatalf("stats %+v, want 2 cycles and 2 firings", want)
	}
	ss := liveSession(sA, "xc")
	if _, err := ss.submit(nil, func() (any, error) {
		if scratch := Fingerprint(ss.eng); scratch != wantFp.FP {
			return nil, fmt.Errorf("served fingerprint %s, from scratch %s", wantFp, scratch)
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	tsA.Close()

	_, tsB := testServer(t, Config{Workers: 2, Processes: 2, DataDir: dir})
	if code, _ := doJSON(t, "POST", tsB.URL+"/sessions/xc/restore", nil, nil); code != http.StatusOK {
		t.Fatalf("restore: %d", code)
	}
	got, gotFp := sessionState(t, tsB.URL, "xc")
	if gotFp != wantFp || got.Cycles != want.Cycles || got.Fired != want.Fired || got.WM != want.WM {
		t.Fatalf("restored session %+v %s, want %+v %s", got, gotFp, want, wantFp)
	}
}

// TestSessionIDValidation: ids land on disk as directory names, so the
// server constrains them.
func TestSessionIDValidation(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, Config{Workers: 2, Processes: 2, DataDir: dir})
	for _, id := range []string{"../escape", "a/b", ".hidden", "x y", string(make([]byte, 80))} {
		if code, _ := doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{ID: id, Program: serveProgSrc}, nil); code != http.StatusBadRequest {
			t.Fatalf("create with id %q: %d, want 400", id, code)
		}
	}
}

// postRaw posts body as it stands, without doJSON's json.Marshal (which
// would escape every '<' to six bytes), and returns the status code.
func postRaw(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestOversizeWALLineRefused: an 11.5 MB /run whose one symbol is 11 MiB of
// '<' journals as a 66 MiB line, longer than readWAL reads. The server
// must refuse it before it runs, and a restore after a crash must give back
// the session as it was before the request.
func TestOversizeWALLineRefused(t *testing.T) {
	dir := t.TempDir()
	_, tsA := crashableServer(t, dir)
	seedSession(t, tsA.URL, "big1")
	want, wantFp := sessionState(t, tsA.URL, "big1")
	body := `{"cycles":0,"deltas":[{"op":"add","class":"fact","fields":["` + strings.Repeat("<", 11<<20) + `"]}]}`
	if code := postRaw(t, tsA.URL+"/sessions/big1/run", body); code/100 == 2 {
		t.Fatalf("run with a %d-byte body: code=%d, want a refusal", len(body), code)
	}
	tsA.Close()

	_, tsB := testServer(t, Config{Workers: 2, Processes: 2, DataDir: dir})
	if code, _ := doJSON(t, "POST", tsB.URL+"/sessions/big1/restore", nil, nil); code != http.StatusOK {
		t.Fatalf("restore: %d", code)
	}
	got, gotFp := sessionState(t, tsB.URL, "big1")
	if gotFp != wantFp || got.Cycles != want.Cycles || got.WM != want.WM {
		t.Fatalf("restored session %+v %s, want %+v %s", got, gotFp, want, wantFp)
	}
}
