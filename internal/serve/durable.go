package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"soarpsme/internal/snapshot"
	"soarpsme/internal/tasks/cypress"
)

// Durability model (DESIGN §10): with Config.DataDir set, every session
// owns a directory <data>/<id>/ holding
//
//	image.json — the last snapshot (versioned, checksummed; written
//	             atomically via tmp+rename at create, on demand, and at
//	             drain), and
//	wal.jsonl  — the write-ahead delta journal: one CRC-framed record per
//	             mutating request, written BEFORE the request executes
//	             and fdatasync'd before the response is acknowledged,
//	             with the flush overlapped under the request's own
//	             execution (see store.append).
//
// A snapshot truncates the WAL (rename first, truncate second — a crash
// between the two leaves stale WAL records that restore skips by cycle
// index). Restore = decode image, rebuild match state by serial replay,
// re-execute every WAL record past the snapshot. The write-ahead ordering
// bounds loss at the in-flight cycle: a request that never reached the
// journal was never acknowledged.

// walCRCTable frames WAL records with CRC32-Castagnoli so a torn tail
// (crash mid-append) is detected and discarded instead of replayed.
var walCRCTable = crc32.MakeTable(crc32.Castagnoli)

// walRecord is one journalled mutating request. Cycle is the session
// cycle count before execution; restore uses it to skip records already
// covered by the snapshot.
type walRecord struct {
	Seq   int64       `json:"seq,omitempty"`
	Cycle int         `json:"cycle"`
	Run   *RunRequest `json:"run"`
}

// maxWALLine bounds one journal line, newline included: it is the longest
// line readWAL's scanner reads. json.Marshal writes each '<', '>' and '&'
// as six bytes, so a line can be six times its request body.
const maxWALLine = 1 << 26

var errWALLineTooLong = errors.New("journal line too long")

// walLine is the on-disk frame: the record's raw JSON plus its checksum.
type walLine struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// store is one session's durable state on disk. Each session owns its
// journal file and fdatasyncs it per append: a shared cross-session
// group committer (syncfs absorption) was tried here and measured WORSE
// than per-file barriers under real ingest load — sessions execute
// serially on the CPU, so their barriers almost never align (absorption
// ratio ~1), and syncfs pays for every dirty page on the filesystem
// while fdatasync flushes only the journal.
type store struct {
	dir string
	wal *os.File
}

func openStore(dir string) (*store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &store{dir: dir, wal: f}, nil
}

// syncFileAsync starts the durability barrier for everything already
// written to f and returns a receive function, so the caller can
// overlap work with the disk flush.
func (st *store) syncFileAsync(f *os.File) func() error {
	ch := make(chan error, 1)
	go func() { ch <- fdatasync(f) }()
	// Yield so the barrier goroutine (in the runnext slot) enters the
	// syscall NOW: on a single-P runtime it would otherwise sit runnable
	// while the caller's cycle monopolizes the CPU, serializing flush
	// after execution instead of under it.
	runtime.Gosched()
	return func() error { return <-ch }
}

func (st *store) imagePath() string { return filepath.Join(st.dir, "image.json") }

// append journals one record and starts its durability barrier,
// returning the bytes written and the barrier's outcome channel. The
// record is written BEFORE the caller executes the request (write-ahead),
// but the barrier may be received after execution and before the ACK —
// overlapping the flush with the cycle. That weakens nothing: a crash in
// the overlap window loses in-memory state along with the maybe-durable
// record, the request was never acknowledged, and restore + Seq
// idempotency make the client's retry exactly-once either way (replayed
// record → cached result; torn record → re-executed).
//
// A line longer than maxWALLine is refused before anything is written:
// readWAL could not read it back, so journalling it would make the whole
// session unrestorable.
func (st *store) append(rec walRecord) (int, func() error, error) {
	raw, err := json.Marshal(rec)
	if err != nil {
		return 0, nil, err
	}
	line, err := json.Marshal(walLine{CRC: crc32.Checksum(raw, walCRCTable), Rec: raw})
	if err != nil {
		return 0, nil, err
	}
	line = append(line, '\n')
	if len(line) > maxWALLine {
		return 0, nil, fmt.Errorf("%w: %d bytes, limit %d", errWALLineTooLong, len(line), maxWALLine)
	}
	if _, err := st.wal.Write(line); err != nil {
		return 0, nil, err
	}
	return len(line), st.syncFileAsync(st.wal), nil
}

// writeImage atomically replaces the snapshot, then truncates the WAL:
// every journalled record is now baked into the image. Returns the image
// size in bytes.
func (st *store) writeImage(data []byte) (int, error) {
	tmp := st.imagePath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return 0, err
	}
	if err := fdatasync(f); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, st.imagePath()); err != nil {
		return 0, err
	}
	if err := st.wal.Truncate(0); err != nil {
		return 0, err
	}
	if _, err := st.wal.Seek(0, 0); err != nil {
		return 0, err
	}
	return len(data), nil
}

// truncate cuts the journal to its first size bytes and makes the cut
// durable.
func (st *store) truncate(size int64) error {
	if err := st.wal.Truncate(size); err != nil {
		return err
	}
	return fdatasync(st.wal)
}

// errWALCorrupt is a journal line that does not decode, or fails its
// checksum, with another line after it. A crash mid-append tears only the
// last line, so this is damage: the records after it were acknowledged, and
// a restore that dropped them would silently lose them.
var errWALCorrupt = errors.New("corrupt journal line before the last")

// decodeWALLine checks one journal line, trailing newline included, and
// decodes its record. A line without its newline was never completely
// written, so its request was never acknowledged: it counts as torn.
func decodeWALLine(b []byte) (walRecord, error) {
	var line walLine
	var rec walRecord
	if len(b) == 0 || b[len(b)-1] != '\n' {
		return rec, errors.New("no newline")
	}
	if err := json.Unmarshal(b, &line); err != nil {
		return rec, err
	}
	if crc32.Checksum(line.Rec, walCRCTable) != line.CRC {
		return rec, errors.New("checksum mismatch")
	}
	err := json.Unmarshal(line.Rec, &rec)
	return rec, err
}

// readWAL decodes the journal. Its last line may be torn (a crash
// mid-append leaves at most one): torn is then that line's offset, which
// the caller cuts off before appending again, and -1 otherwise. A bad line
// anywhere else is an errWALCorrupt naming it.
func readWAL(path string) (recs []walRecord, torn int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, -1, nil
	}
	if err != nil {
		return nil, -1, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	// The buffer starts small and grows with the longest line, up to
	// maxWALLine: a restore reads a tail of a few short lines.
	sc.Buffer(nil, maxWALLine)
	// Lines keep their newline, so offsets add up and a line cut short
	// before its newline shows.
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i+1], nil
		}
		if atEOF && len(data) > 0 {
			return len(data), data, nil
		}
		return 0, nil, nil
	})
	var off int64
	var bad error
	torn = -1
	for n := 1; sc.Scan(); n++ {
		if bad != nil {
			return nil, -1, fmt.Errorf("%w: %s line %d: %v", errWALCorrupt, path, n-1, bad)
		}
		rec, err := decodeWALLine(sc.Bytes())
		if err != nil {
			bad, torn = err, off
			continue
		}
		recs = append(recs, rec)
		off += int64(len(sc.Bytes()))
	}
	return recs, torn, sc.Err()
}

func (st *store) close() {
	if st != nil && st.wal != nil {
		st.wal.Close()
	}
}

// sessionImage is the durable form of one session: its creation request
// (engine configuration and task parameters), progress counters, the
// idempotency watermark, and the engine image. Cypress sessions also
// carry the workload driver's state so the restored session produces the
// identical remaining batch sequence. The engine image's program is
// empty: the creation request names it (createProgram), and a restore
// derives it from there and checks it against the image's base hash.
type sessionImage struct {
	ID         string               `json:"id"`
	Task       string               `json:"task"`
	Created    string               `json:"created"`
	Create     CreateRequest        `json:"create"`
	Cycles     int                  `json:"cycles"`
	Chunks     int                  `json:"chunks"`
	NextChunk  int                  `json:"nextChunk"`
	LastSeq    int64                `json:"lastSeq,omitempty"`
	LastResult *RunResult           `json:"lastResult,omitempty"`
	Engine     *snapshot.Image      `json:"engine"`
	Driver     *cypress.DriverState `json:"driver,omitempty"`
}

// SnapshotResult answers POST /sessions/{id}/snapshot.
type SnapshotResult struct {
	ID     string `json:"id"`
	Cycles int    `json:"cycles"`
	Bytes  int    `json:"bytes"`
}

// RestoreResult answers POST /sessions/{id}/restore.
type RestoreResult struct {
	ID       string  `json:"id"`
	Task     string  `json:"task"`
	Cycles   int     `json:"cycles"`   // session cycle count after restore
	Replayed int     `json:"replayed"` // WAL records re-executed
	Seconds  float64 `json:"seconds"`
	// CacheHit marks a warm restore: the session's base topology was
	// already compiled on this server, so the restore paid no compile.
	CacheHit bool `json:"cache_hit"`
}

// saveSnapshot exports the session into its store and truncates the WAL.
// It must run with exclusive engine access: under the turn, before the
// session goes live (create), or after shutdown (drain).
func (s *session) saveSnapshot() (*SnapshotResult, error) {
	if s.store == nil {
		return nil, fmt.Errorf("serve: session %s is not durable (no data dir)", s.id)
	}
	img := &sessionImage{
		ID:         s.id,
		Task:       s.task,
		Created:    s.created.UTC().Format(time.RFC3339Nano),
		Create:     s.create,
		Cycles:     s.cycles,
		Chunks:     s.chunks,
		NextChunk:  s.nextChunk,
		LastSeq:    s.lastSeq,
		LastResult: s.lastRes,
		Engine:     snapshot.Export(s.eng),
	}
	// The program is a function of s.create: restore derives it again.
	img.Engine.Program = ""
	if s.drv != nil {
		img.Driver = s.drv.State()
	}
	data, err := snapshot.Seal(img)
	if err != nil {
		return nil, err
	}
	n, err := s.store.writeImage(data)
	if err != nil {
		return nil, err
	}
	s.srv.mSnapshots.Inc()
	s.srv.mSnapBytes.Add(uint64(n))
	return &SnapshotResult{ID: s.id, Cycles: s.cycles, Bytes: n}, nil
}

// persistCreate writes the genesis snapshot and opens the WAL for a newly
// created session. Called before the session goes live, so a session that
// was ever visible to clients always has an image on disk.
func (s *Server) persistCreate(ss *session) error {
	st, err := openStore(filepath.Join(s.cfg.DataDir, ss.id))
	if err != nil {
		return err
	}
	ss.store = st
	if _, err := ss.saveSnapshot(); err != nil {
		st.close()
		ss.store = nil
		return err
	}
	return nil
}

// restoreSession rebuilds a session from its on-disk image plus WAL and
// makes it live. Returns (result, status, error); status is an HTTP code
// for the handler (409 live/in-progress, 404 no image, 500 otherwise).
func (s *Server) restoreSession(id string) (*RestoreResult, int, error) {
	if s.cfg.DataDir == "" {
		return nil, http.StatusBadRequest, fmt.Errorf("server has no data dir")
	}
	// A restore target must not be live: restoring into a running session
	// would race its engine. The reservation also serializes concurrent
	// restores of the same id.
	if _, code, err := s.reserve(id, false); err != nil {
		return nil, code, err
	}
	// Deferred as in handleCreate: a rebuild or a WAL replay can panic too.
	adopted := false
	defer func() {
		if !adopted {
			s.unreserve(id)
		}
	}()

	if s.testHookReserved != nil {
		s.testHookReserved()
	}

	start := time.Now()
	ss, replayed, cacheHit, err := s.rebuildSession(id)
	if err != nil {
		s.mRestoreFailed.Inc()
		if ss != nil && ss.eng != nil {
			// Evidence for the post-mortem: dump the flight recorder with
			// the failure reason (lands in -flight-dir when configured).
			ss.eng.Prof.Trip(fmt.Sprintf("restore of session %s failed: %v", id, err))
			s.releaseEngine(ss.eng)
		}
		code := http.StatusInternalServerError
		if os.IsNotExist(err) {
			code = http.StatusNotFound
		}
		return nil, code, err
	}

	s.adopt(ss)
	adopted = true

	d := time.Since(start)
	s.mRestored.Inc()
	s.mRestoreSecs.Observe(d.Seconds())
	s.mReplayed.Add(uint64(replayed))
	s.noteCacheLookup(cacheHit)
	if s.cfg.Log != nil {
		temp := "cold"
		if cacheHit {
			temp = "warm"
		}
		s.cfg.Log.Info("session restored", "session", id, "task", ss.task,
			"cycles", ss.cycles, "replayed", replayed, "image", temp, "dur", d)
	}
	return &RestoreResult{ID: id, Task: ss.task, Cycles: ss.cycles,
		Replayed: replayed, Seconds: d.Seconds(), CacheHit: cacheHit}, http.StatusOK, nil
}

// rebuildSession does the heavy lifting of restoreSession: decode the
// image, rebuild the engine by serial replay, resurrect task state, and
// re-execute the WAL suffix. The returned session is not yet live.
// cacheHit reports whether the base topology came warm out of the image
// cache (one compile per program per server, however many sessions fail
// over at once).
func (s *Server) rebuildSession(id string) (*session, int, bool, error) {
	dir := filepath.Join(s.cfg.DataDir, id)
	data, err := os.ReadFile(filepath.Join(dir, "image.json"))
	if err != nil {
		return nil, 0, false, err
	}
	var img sessionImage
	if err := snapshot.Open(data, &img); err != nil {
		return nil, 0, false, err
	}
	if img.ID != id {
		return nil, 0, false, fmt.Errorf("serve: image in %s is for session %q", dir, img.ID)
	}
	img.Create.ID = id
	if err := checkCypressParams(&img.Create); err != nil {
		return nil, 0, false, err
	}
	// The program comes from the create request, never from the image: an
	// earlier build's recorded engine.program is ignored. Without a recorded
	// base hash nothing would check that the derived program is the one
	// the state was exported from, so such an image is refused.
	if img.Engine == nil {
		return nil, 0, false, fmt.Errorf("serve: image for %s has no engine", id)
	}
	if img.Engine.BaseHash == "" {
		return nil, 0, false, fmt.Errorf("serve: image for %s records no base hash to check its program against", id)
	}
	sys := cypressSystem(&img.Create)
	img.Engine.Program = createProgram(&img.Create, sys)
	eng, cacheHit, err := snapshot.RestoreWithCache(img.Engine, s.engineConfig(), s.images)
	if err != nil {
		return nil, 0, false, err
	}
	ss := s.newSession(img.Create, sys, eng)
	if created, err := time.Parse(time.RFC3339Nano, img.Created); err == nil {
		ss.created = created
	}
	ss.cycles, ss.chunks, ss.nextChunk = img.Cycles, img.Chunks, img.NextChunk
	ss.lastSeq, ss.lastRes = img.LastSeq, img.LastResult
	if ss.sys != nil {
		if img.Driver == nil {
			return ss, 0, cacheHit, fmt.Errorf("serve: cypress image for %s has no driver state", id)
		}
		drv, err := cypress.RestoreDriver(ss.sys, eng.Tab, eng.WM, img.Driver)
		if err != nil {
			return ss, 0, cacheHit, err
		}
		ss.drv = drv
	}

	// Re-execute the journal suffix. Records at a cycle index the snapshot
	// already covers are skipped (a crash between image rename and WAL
	// truncation leaves them behind); a gap means a missing record and the
	// restore must fail rather than silently diverge.
	recs, torn, err := readWAL(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		return ss, 0, cacheHit, err
	}
	replayed := 0
	for _, rec := range recs {
		if rec.Cycle < ss.cycles {
			continue
		}
		if rec.Cycle > ss.cycles {
			return ss, replayed, cacheHit, fmt.Errorf("serve: WAL gap for %s: record at cycle %d, session at %d", id, rec.Cycle, ss.cycles)
		}
		if rec.Run == nil {
			return ss, replayed, cacheHit, fmt.Errorf("serve: WAL record for %s at cycle %d has no request", id, rec.Cycle)
		}
		// Replay errors mirror the original execution: a request that
		// failed validation then fails identically now, leaving the same
		// state; the journal stays the source of truth.
		rec.Run.Seq = rec.Seq
		ss.runLogged(rec.Run)
		replayed++
	}

	// Only now does the session get its store: with none, the replay above
	// ran its records without journaling them again (writeAhead).
	// A torn last line goes first, or the next record would run on from it.
	st, err := openStore(dir)
	if err == nil && torn >= 0 {
		if err = st.truncate(torn); err != nil {
			st.close()
		}
	}
	if err != nil {
		return ss, replayed, cacheHit, err
	}
	ss.store = st
	return ss, replayed, cacheHit, nil
}
