package serve

import (
	"fmt"
	"net/http"
	"slices"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/value"
)

// TestImageCacheAcrossSessions: sessions of one program share a single
// compiled image — the first create compiles, the rest stamp out state —
// and /debug/match surfaces the cache counters.
func TestImageCacheAcrossSessions(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2, Processes: 2})

	ids := make([]string, 3)
	for i := range ids {
		var created CreateResult
		if code, _ := doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{Program: serveProgSrc}, &created); code != http.StatusCreated {
			t.Fatalf("create %d: %d", i, code)
		}
		ids[i] = created.ID
	}
	st := s.ImageCacheStats()
	if st.Misses != 1 || st.Hits != 2 || st.Live != 1 || st.Sessions != 3 {
		t.Fatalf("cache after 3 same-program creates: %+v", st)
	}

	// A different program is a second image.
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{Program: serveProgSrc + "\n(p extra (fact ^v 1) --> (make seen ^v x))"}, nil); code != http.StatusCreated {
		t.Fatalf("create with new program: %d", code)
	}
	if st = s.ImageCacheStats(); st.Misses != 2 || st.Live != 2 {
		t.Fatalf("cache after distinct program: %+v", st)
	}

	// Deleting a session releases its reference but keeps the image warm.
	if code, _ := doJSON(t, "DELETE", ts.URL+"/sessions/"+ids[0], nil, nil); code != http.StatusOK {
		t.Fatal("delete failed")
	}
	if st = s.ImageCacheStats(); st.Sessions != 3 || st.Live != 2 {
		t.Fatalf("cache after delete: %+v", st)
	}

	var dbg struct {
		ImageCache *engine.CacheStats `json:"image_cache"`
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/debug/match", nil, &dbg); code != http.StatusOK || dbg.ImageCache == nil {
		t.Fatalf("/debug/match image_cache: code=%d stats=%+v", code, dbg.ImageCache)
	}
	if dbg.ImageCache.Live != 2 {
		t.Fatalf("/debug/match image_cache = %+v", dbg.ImageCache)
	}
}

// TestImageCacheBounded: a churn of distinct programs does not leave one
// compiled topology resident per program ever uploaded — zero-reference
// images go once the cache is past its warm bound — while an image a live
// session holds stays, whatever the churn.
func TestImageCacheBounded(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2, Processes: 2})
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{ID: "held", Program: serveProgSrc}, nil); code != http.StatusCreated {
		t.Fatalf("create held: %d", code)
	}
	for i := 0; i < 80; i++ {
		prog := fmt.Sprintf("%s\n(p churn-%d (fact ^v %d) --> (make seen ^v %d))", serveProgSrc, i, i, i)
		id := fmt.Sprintf("churn%d", i)
		if code, _ := doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{ID: id, Program: prog}, nil); code != http.StatusCreated {
			t.Fatalf("create %d: %d", i, code)
		}
		if code, _ := doJSON(t, "DELETE", ts.URL+"/sessions/"+id, nil, nil); code != http.StatusOK {
			t.Fatalf("delete %d: %d", i, code)
		}
	}
	if st := s.ImageCacheStats(); st.Live > 65 || st.Sessions != 1 || st.Misses != 81 {
		t.Fatalf("cache after 80 create+delete rounds of distinct programs beside one live session: %+v, want at most 65 live, 1 reference, 81 compiles", st)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions", CreateRequest{Program: serveProgSrc}, nil); code != http.StatusCreated {
		t.Fatal("second create of the held program failed")
	}
	if st := s.ImageCacheStats(); st.Hits != 1 || st.Misses != 81 {
		t.Fatalf("the image a live session holds was dropped by the churn: %+v", st)
	}
}

// TestRestoreStormWarm is the failover storm in miniature: a backend
// hosting many sessions of ONE program dies, and a cold survivor restores
// them all. Only the first restore compiles the program; every subsequent
// one must report a warm cache hit.
func TestRestoreStormWarm(t *testing.T) {
	dir := t.TempDir()
	_, tsA := crashableServer(t, dir)
	const storm = 8
	for i := 0; i < storm; i++ {
		seedSession(t, tsA.URL, fmt.Sprintf("storm%d", i))
	}
	tsA.Close() // crash

	_, tsB := testServer(t, Config{Workers: 2, Processes: 2, DataDir: dir})
	warm := 0
	for i := 0; i < storm; i++ {
		var rr RestoreResult
		if code, _ := doJSON(t, "POST", tsB.URL+"/sessions/"+fmt.Sprintf("storm%d", i)+"/restore", nil, &rr); code != http.StatusOK {
			t.Fatalf("restore %d: %d", i, code)
		}
		if rr.CacheHit {
			warm++
		} else if i > 0 {
			t.Fatalf("restore %d was cold; survivor should compile once per program", i)
		}
	}
	if warm != storm-1 {
		t.Fatalf("%d/%d warm restores, want %d", warm, storm, storm-1)
	}
}

// symbolCount returns the number of symbols tab has interned.
func symbolCount(tab *value.Table) int {
	n := 0
	for tab.Name(value.Sym(n+1)) != "" {
		n++
	}
	return n
}

// TestSessionsShareNoSymbols: what a session interns is its own. One
// session ingests 1,000 distinct strings and is deleted; another session of
// the same program, and one created from the warm image afterwards, hold
// only the program's symbols.
func TestSessionsShareNoSymbols(t *testing.T) {
	srv, _ := testServer(t, Config{Workers: 2, Processes: 2})
	req := CreateRequest{Program: serveProgSrc}
	symbols := func(p *fpProbe) (n int) {
		p.onLoop("count symbols", func(ss *session) error { n = symbolCount(ss.eng.Tab); return nil })
		return n
	}
	a, b := newProbe(t, srv, req), newProbe(t, srv, req)
	want := symbols(b)
	for i := 0; i < 1000; i += 100 {
		ds := make([]DeltaJSON, 100)
		for j := range ds {
			ds[j] = DeltaJSON{Op: "add", Class: "fact", Fields: []any{fmt.Sprintf("str-%d", i+j)}}
		}
		a.ingest("ingest strings", ds...)
	}
	if got := symbols(a); got != want+1000 {
		t.Fatalf("the ingesting session holds %d symbols, want %d", got, want+1000)
	}
	a.delete()
	if got := symbols(b); got != want {
		t.Errorf("the other session's table grew from %d to %d symbols", want, got)
	}
	if got := symbols(newProbe(t, srv, req)); got != want {
		t.Errorf("a session of the warm image starts with %d symbols, want %d", got, want)
	}
}

// TestWarmServerRestoresRecordedMeaning: a restore reads working memory the
// way it was written, whatever order the restoring server's other sessions
// fired their schemas into. Session b, snapshotted on one server, holds
// (out ^x 1); on a second server over the same data directory, another
// session of the program first makes (out ^y 2); b is then restored there.
func TestWarmServerRestoresRecordedMeaning(t *testing.T) {
	const prog = `
(literalize go which)
(p px (go ^which x) --> (make out ^x 1))
(p py (go ^which y) --> (make out ^y 2))
`
	fire := func(url, id, which string) {
		t.Helper()
		if res := ingest(t, url+"/sessions/"+id, DeltaJSON{Op: "add", Class: "go", Fields: []any{which}}); res.Failed != 0 {
			t.Fatalf("%s: ingest: %+v", id, res)
		}
		var res RunResult
		if code, _ := doJSON(t, "POST", url+"/sessions/"+id+"/run", RunRequest{Cycles: 10, Seq: 1}, &res); code != http.StatusOK || res.Fired != 1 {
			t.Fatalf("%s: run: code=%d %+v", id, code, res)
		}
	}
	create := func(url, id string) {
		t.Helper()
		if code, _ := doJSON(t, "POST", url+"/sessions", CreateRequest{ID: id, Program: prog}, nil); code != http.StatusCreated {
			t.Fatalf("create %s: %d", id, code)
		}
	}
	dir := t.TempDir()
	_, first := crashableServer(t, dir)
	create(first.URL, "b")
	fire(first.URL, "b", "x")
	if code, _ := doJSON(t, "POST", first.URL+"/sessions/b/snapshot", nil, nil); code != http.StatusOK {
		t.Fatalf("snapshot: %d", code)
	}
	first.Close()

	second, ts := testServer(t, Config{Workers: 2, Processes: 2, DataDir: dir})
	create(ts.URL, "a")
	fire(ts.URL, "a", "y")
	if code, _ := doJSON(t, "POST", ts.URL+"/sessions/b/restore", nil, nil); code != http.StatusOK {
		t.Fatalf("restore: %d", code)
	}
	ss := liveSession(second, "b")
	var wm []string
	if _, err := ss.submit(nil, func() (any, error) {
		for _, w := range ss.eng.WM.All() {
			wm = append(wm, w.Format(ss.eng.Tab, ss.eng.Reg))
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(wm, "(out ^x 1)") {
		t.Fatalf("restored working memory %v, want it to hold (out ^x 1)", wm)
	}
}
