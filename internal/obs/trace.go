package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one Chrome trace-event (the JSON array format documented in the
// Trace Event Format spec; loadable in chrome://tracing and Perfetto).
// Ph "X" is a complete span (Ts + Dur), "i" an instant, "M" metadata.
// Timestamps and durations are microseconds.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Tracer collects trace events. Emission is concurrency-safe; wall-clock
// events are timestamped relative to the tracer's creation so a trace
// always starts near ts 0.
type Tracer struct {
	mu    sync.Mutex
	start time.Time
	// meta is the process_name/thread_name metadata, one event per lane. It
	// lives outside the ring so no compaction can discard it, and every
	// read writes it first.
	meta []Event
	// ring is what is retained, oldest first: eager events and lazy
	// per-cycle batches side by side. size is the number of events they
	// stand for — limit, Dropped and Len all count events, so a batch of
	// task records and the events around it share one budget.
	ring []entry
	size int
	// cycleMark indexes the first entry of the current match cycle (the
	// /trace/last-cycle window).
	cycleMark int
	// limit, when > 0, bounds the ring: past the limit the oldest entries
	// are discarded (dropped counts their events). Used when the tracer
	// only feeds the live /trace endpoints, so long runs stay bounded.
	limit   int
	dropped uint64
}

// entry is one ring slot: an event, or (render != nil) a batch of n events
// that are built only when the trace is read.
type entry struct {
	Event
	n      int
	render func(dst []Event) []Event
}

// NewTracer returns an empty tracer with its epoch set to now.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// TS converts a wall-clock time to trace microseconds.
func (t *Tracer) TS(at time.Time) float64 {
	if t == nil {
		return 0
	}
	return float64(at.Sub(t.start)) / float64(time.Microsecond)
}

// SetLimit bounds the ring to at most n events; once exceeded, the oldest
// entries are discarded (down to n/2, to amortize the shift). A limit of 0
// restores the unbounded full-run buffer.
func (t *Tracer) SetLimit(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.limit = n
	t.mu.Unlock()
}

// Dropped returns how many events have been discarded under SetLimit.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

func (t *Tracer) add(e entry) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring = append(t.ring, e)
	t.size += e.n
	if t.limit > 0 && t.size > t.limit {
		// The entry just added always survives, so the newest cycle stays
		// readable even if it alone is larger than the budget.
		drop := 0
		for ; t.size > t.limit/2 && drop < len(t.ring)-1; drop++ {
			t.size -= t.ring[drop].n
			t.dropped += uint64(t.ring[drop].n)
		}
		keep := copy(t.ring, t.ring[drop:])
		clear(t.ring[keep:]) // release the dropped batches' records
		t.ring = t.ring[:keep]
		t.cycleMark = max(t.cycleMark-drop, 0)
	}
	t.mu.Unlock()
}

// Batch retains n events as one ring entry without building them: render
// must append exactly those n events to dst, and runs only when the trace
// is read (WriteJSON, WriteLastCycle) — possibly more than once, possibly
// never. The match runtime hands each cycle's task records over this way:
// one lock per cycle instead of one span per task.
func (t *Tracer) Batch(n int, render func(dst []Event) []Event) {
	if n > 0 {
		t.add(entry{n: n, render: render})
	}
}

// Complete emits a complete span ("X") from start lasting d.
func (t *Tracer) Complete(pid, tid int, name, cat string, start time.Time, d time.Duration, args map[string]any) {
	t.CompleteTS(pid, tid, name, cat, t.TS(start), float64(d)/float64(time.Microsecond), args)
}

// CompleteTS emits a complete span with explicit microsecond timestamps.
func (t *Tracer) CompleteTS(pid, tid int, name, cat string, tsUS, durUS float64, args map[string]any) {
	t.add(entry{Event: Event{Name: name, Cat: cat, Ph: "X", Ts: tsUS, Dur: durUS, Pid: pid, Tid: tid, Args: args}, n: 1})
}

// Instant emits an instant event ("i") at the given wall-clock time.
func (t *Tracer) Instant(pid, tid int, name, cat string, at time.Time, args map[string]any) {
	t.InstantTS(pid, tid, name, cat, t.TS(at), args)
}

// InstantTS emits an instant event with an explicit microsecond timestamp.
func (t *Tracer) InstantTS(pid, tid int, name, cat string, tsUS float64, args map[string]any) {
	t.add(entry{Event: Event{Name: name, Cat: cat, Ph: "i", Ts: tsUS, Pid: pid, Tid: tid, Args: args}, n: 1})
}

// SetProcessName names a pid lane (the process_name metadata event).
func (t *Tracer) SetProcessName(pid int, name string) {
	t.setMeta(Event{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}})
}

// SetThreadName names a (pid, tid) lane (the thread_name metadata event).
func (t *Tracer) SetThreadName(pid, tid int, name string) {
	t.setMeta(Event{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}})
}

// setMeta keeps one metadata event per lane: naming a lane again (every
// engine of a serving process names the same match lanes) replaces the name.
func (t *Tracer) setMeta(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.meta {
		if m := &t.meta[i]; m.Name == e.Name && m.Pid == e.Pid && m.Tid == e.Tid {
			*m = e
			return
		}
	}
	t.meta = append(t.meta, e)
}

// MarkCycle starts a new /trace/last-cycle window: what is emitted or
// batched from now on (until the next MarkCycle) is "the last cycle".
func (t *Tracer) MarkCycle() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cycleMark = len(t.ring)
	t.mu.Unlock()
}

// Len returns the number of retained events, lane metadata aside.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.size
}

// events renders the lane metadata followed by the ring (from the cycle
// mark when fromMark is set). Batches are rendered outside the lock.
func (t *Tracer) events(fromMark bool) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	lo := 0
	if fromMark {
		lo = t.cycleMark
	}
	out := append([]Event(nil), t.meta...)
	ring := append([]entry(nil), t.ring[lo:]...)
	t.mu.Unlock()
	for _, e := range ring {
		if e.render != nil {
			out = e.render(out)
		} else {
			out = append(out, e.Event)
		}
	}
	return out
}

// WriteJSON writes the lane metadata and every retained event as a Chrome
// trace-event JSON array, one event per line.
func (t *Tracer) WriteJSON(w io.Writer) error { return writeEvents(w, t.events(false)) }

// WriteLastCycle writes the lane metadata and only what has been retained
// since the last MarkCycle.
func (t *Tracer) WriteLastCycle(w io.Writer) error { return writeEvents(w, t.events(true)) }

func writeEvents(w io.Writer, events []Event) error {
	if len(events) == 0 {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(events)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(b, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
