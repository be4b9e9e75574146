package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// env is what a workload's set-up receives: the seed its inputs derive
// from and the directory it may write under.
type env struct {
	seed  uint64
	out   string
	quick bool
}

// script is a workload after set-up: a fixed sequence of rounds.
type script interface {
	// run drives the given number of rounds, recording every op through
	// rec, and returns only after every goroutine it started has ended.
	run(rounds int, rec *recorder)
	// close releases servers, sessions and directories.
	close()
}

// workload is one benchmark workload. Its script length is fixed by
// -seconds through roundsPerSec, never by a clock: the same flags always
// execute the same operations.
type workload struct {
	name string
	// roundsPerSec sizes the script: rounds of the timed phase per nominal
	// second on the 2-core reference host.
	roundsPerSec float64
	setup        func(e *env) (script, error)
}

// warmupRounds run untimed at the end of every set-up.
const warmupRounds = 3

// setupRepeats is how often an untraced run sets the workload up; setup_s
// is the median, so one cold set-up does not decide it.
const setupRepeats = 3

// slice is how many rounds run between two reference-kernel readings:
// about half a nominal second's worth.
func (w *workload) slice() int {
	n := int(math.Round(w.roundsPerSec / 2))
	if n < 1 {
		n = 1
	}
	return n
}

func (w *workload) rounds(opt options) int {
	n := int(math.Round(w.roundsPerSec * float64(opt.seconds)))
	if opt.quick {
		n /= 10
	}
	if n < 2 {
		n = 2
	}
	return n
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) print(w io.Writer) {
	data, err := json.Marshal(r)
	if err != nil {
		panic(err) // numbers and strings only: cannot fail
	}
	fmt.Fprintf(w, "%s\n", data)
}

// span is one traced call from the harness into a layer. Parent 0 is the
// timed phase itself; ops hang under their round's span.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Round   int     `json:"round"`
	Client  int     `json:"client"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (sp span) dur() time.Duration {
	return time.Duration((sp.EndUS - sp.StartUS) * float64(time.Microsecond))
}

// recorder collects the timed phase: pooled op latencies, work done,
// failures, and — in a traced run — spans.
type recorder struct {
	mu        sync.Mutex
	epoch     time.Time
	lat       []time.Duration
	work      int64
	attempted int
	failed    int
	firstErr  error
	// stale counts served fingerprints that held an instantiation beyond
	// their reference (fingerprintSurplus): reported, not failed.
	stale   int
	tracing bool
	// roundBase numbers the rounds of the current slice of a timed phase.
	roundBase int
	spans     []span
}

func newRecorder(tracing bool) *recorder {
	return &recorder{epoch: time.Now(), tracing: tracing}
}

// client is one closed-loop driver goroutine's handle on the recorder.
type client struct {
	rec       *recorder
	id        int
	round     int
	roundSpan int
}

func (r *recorder) client(id int) *client { return &client{rec: r, id: id} }

func (r *recorder) us(t time.Time) float64 {
	return float64(t.Sub(r.epoch)) / float64(time.Microsecond)
}

func (c *client) beginRound(round int) {
	round += c.rec.roundBase
	c.round = round
	if c.rec.tracing {
		c.rec.mu.Lock()
		c.roundSpan = len(c.rec.spans) + 1
		c.rec.spans = append(c.rec.spans, span{ID: c.roundSpan, Name: "round", Round: round, Client: c.id,
			StartUS: c.rec.us(time.Now())})
		c.rec.mu.Unlock()
	}
}

func (c *client) endRound() {
	if c.rec.tracing {
		c.rec.mu.Lock()
		c.rec.spans[c.roundSpan-1].EndUS = c.rec.us(time.Now())
		c.rec.mu.Unlock()
	}
}

// op records one timed operation: its latency joins the pooled latencies,
// its work the work total. A non-nil err is a failed op; there are no
// retries anywhere in the harness.
func (c *client) op(name string, start time.Time, d time.Duration, work int, err error) {
	c.record(name, start, d, work, err, true)
}

// aux records a call that belongs to the round but is not the workload's
// op (session create and delete around an ingest stream): it counts as
// attempted and may fail, but stays out of the latency pool.
func (c *client) aux(name string, start time.Time, d time.Duration, err error) {
	c.record(name, start, d, 0, err, false)
}

func (c *client) noteStale() {
	c.rec.mu.Lock()
	c.rec.stale++
	c.rec.mu.Unlock()
}

// credit adds work that no single op accounts for.
func (c *client) credit(work int) {
	c.rec.mu.Lock()
	c.rec.work += int64(work)
	c.rec.mu.Unlock()
}

func (c *client) record(name string, start time.Time, d time.Duration, work int, err error, pooled bool) {
	r := c.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("round %d %s: %w", c.round, name, err)
		}
	} else {
		r.work += int64(work)
	}
	if pooled {
		r.lat = append(r.lat, d)
	}
	if r.tracing {
		r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: c.roundSpan, Name: name, Round: c.round,
			Client: c.id, StartUS: r.us(start), EndUS: r.us(start.Add(d))})
	}
}

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest element with at least p percent of the sample at or below it.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the nearest-rank median of an unsorted sample.
func median(ds []time.Duration) time.Duration { return percentile(sortedCopy(ds), 50) }

func sortedCopy(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianFloat(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// phase is a finished timed phase.
type phase struct {
	rec    *recorder
	wall   time.Duration
	allocs uint64
	// ref holds the reference-kernel timings taken between the slices.
	ref refReadings
}

// rawWorkPerSec is work over the wall time of the slices, as measured.
func (p *phase) rawWorkPerSec() float64 { return float64(p.rec.work) / p.wall.Seconds() }

// slice runs n rounds of the script, numbered from base. Before them it
// collects garbage, so that every slice and every reference reading starts
// from the same heap state, and times the reference kernel. Only the rounds
// count towards the phase's wall time and allocations.
func (ph *phase) slice(s script, base, n int) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	ph.ref.sample()
	ph.rec.roundBase = base
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	s.run(n, ph.rec)
	ph.wall += time.Since(t0)
	runtime.ReadMemStats(&m1)
	ph.allocs += m1.Mallocs - m0.Mallocs
}

// timedPhases runs the script's rounds in slices, every slice once per
// phase in turn. An untraced run has one phase; a traced run has a traced
// and a plain one, interleaved so that host drift lands on both.
func timedPhases(s script, rounds, slice int, phases ...*phase) {
	for done := 0; done < rounds; done += slice {
		n := slice
		if rounds-done < n {
			n = rounds - done
		}
		for _, ph := range phases {
			ph.slice(s, done, n)
		}
	}
	for _, ph := range phases {
		ph.ref.sample()
	}
}

// setUp runs one complete set-up including the warm-up rounds, which must
// not fail: a workload that cannot warm up has no defined timed phase.
func setUp(w *workload, e *env) (script, time.Duration, error) {
	t0 := time.Now()
	s, err := w.setup(e)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	warm := newRecorder(false)
	rounds := warmupRounds
	if e.quick {
		rounds = 1
	}
	s.run(rounds, warm)
	if warm.failed > 0 {
		s.close()
		return nil, 0, fmt.Errorf("%s warm-up: %d of %d ops failed: %w", w.name, warm.failed, warm.attempted, warm.firstErr)
	}
	return s, time.Since(t0), nil
}

func runWorkload(w *workload, opt options, stderr io.Writer) (*result, error) {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return nil, err
	}
	e := &env{seed: opt.seed, out: opt.out, quick: opt.quick}
	if opt.trace {
		return runTraced(w, opt, e, stderr)
	}
	calibBefore := calibrate()

	// The first set-up of the process also pays the runtime's cold start,
	// which is what a user launching the program pays; the later ones show
	// what the set-up itself costs. The median of the three is reported,
	// normalised by reference readings taken around them.
	repeats := setupRepeats
	if opt.quick {
		repeats = 1
	}
	var s script
	var setups []float64
	var setupRef refReadings
	for i := 0; i < repeats; i++ {
		if s != nil {
			s.close()
		}
		setupRef.sample()
		var d time.Duration
		var err error
		if s, d, err = setUp(w, e); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	setupRef.sample()
	defer s.close()

	ph := &phase{rec: newRecorder(false)}
	timedPhases(s, w.rounds(opt), w.slice(), ph)
	calibAfter := calibrate()
	rec := ph.rec
	if rec.work == 0 {
		return nil, fmt.Errorf("%s: no work completed (%d of %d ops failed: %v)", w.name, rec.failed, rec.attempted, rec.firstErr)
	}
	lat := sortedCopy(rec.lat)
	slow := ph.ref.slowdown()
	raw := map[string]metric{
		"op_ms_p50":  {ms(percentile(lat, 50)), "ms"},
		"op_ms_p90":  {ms(percentile(lat, 90)), "ms"},
		"work_per_s": {ph.rawWorkPerSec(), "work/s"},
		"setup_s":    {medianFloat(setups), "s"},
	}
	res := &result{
		Correct:   rec.failed == 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics: map[string]metric{
			"op_ms_p50":       {raw["op_ms_p50"].Value / slow, "ms"},
			"op_ms_p90":       {raw["op_ms_p90"].Value / slow, "ms"},
			"work_per_s":      {raw["work_per_s"].Value * slow, "work/s"},
			"allocs_per_work": {float64(ph.allocs) / float64(rec.work), "count"},
			"peak_rss_mb":     {peakRSSMB(), "MB"},
			"setup_s":         {raw["setup_s"].Value / setupRef.slowdown(), "s"},
		},
	}

	fmt.Fprintf(stderr, "== %s seed=%d rounds=%d: %d ops timed (%d attempted, %d failed), %d work in %.2fs\n",
		w.name, opt.seed, w.rounds(opt), len(lat), rec.attempted, rec.failed, rec.work, ph.wall.Seconds())
	if rec.firstErr != nil {
		fmt.Fprintf(stderr, "   first failure: %v\n", rec.firstErr)
	}
	if rec.stale > 0 {
		fmt.Fprintf(stderr, "   %d served fingerprints held a stale instantiation (counted, not failed: README)\n", rec.stale)
	}
	printMetrics(stderr, res.Metrics, endToEndNames)
	fmt.Fprintf(stderr, "   as measured, before dividing by the host's slowdown of %.3f (%d reference readings; set-ups %.3f):\n",
		slow, len(ph.ref.chase), setupRef.slowdown())
	printMetrics(stderr, raw, endToEndNames)
	fmt.Fprintf(stderr, "   set-ups %.3fs; host %s nproc=%d gomaxprocs=%d calib %.1f -> %.1f ms%s\n",
		setups, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), calibBefore, calibAfter, driftNote(calibBefore, calibAfter))
	return res, nil
}

// driftNote flags a run whose two host calibrations disagree: its timings
// were taken on a host that changed speed underneath it.
func driftNote(before, after float64) string {
	if math.Abs(after-before) > 0.05*before {
		return " host_drift"
	}
	return ""
}

func printMetrics(w io.Writer, ms map[string]metric, names []string) {
	for _, n := range names {
		if m, ok := ms[n]; ok {
			fmt.Fprintf(w, "   %-40s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
}

var endToEndNames = []string{"op_ms_p50", "op_ms_p90", "work_per_s", "allocs_per_work", "peak_rss_mb", "setup_s"}

// writeTrace stores the spans of a traced run.
func writeTrace(dir, workload string, spans []span) (string, error) {
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
