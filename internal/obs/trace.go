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

// Tracer collects trace events for a -trace file written at exit.
// Emission is concurrency-safe; wall-clock events are timestamped relative
// to the tracer's creation so a trace always starts near ts 0. It keeps
// everything it is given: only a CLI run, which ends, builds one.
type Tracer struct {
	mu    sync.Mutex
	start time.Time
	// meta is the process_name/thread_name metadata, one event per lane;
	// every read writes it first.
	meta []Event
	// held is what was emitted, oldest first: eager events and lazy
	// per-cycle batches side by side.
	held []entry
}

// entry is one held event, or (render != nil) a batch of events that are
// built only when the trace is read.
type entry struct {
	Event
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

func (t *Tracer) add(e entry) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.held = append(t.held, e)
	t.mu.Unlock()
}

// Batch holds a group of events without building them: render appends them
// to dst, and runs only when the trace is read. The match runtime hands
// each cycle's task records over this way: one lock per cycle instead of
// one span per task.
func (t *Tracer) Batch(render func(dst []Event) []Event) {
	t.add(entry{render: render})
}

// Complete emits a complete span ("X") from start lasting d.
func (t *Tracer) Complete(pid, tid int, name, cat string, start time.Time, d time.Duration, args map[string]any) {
	t.completeTS(pid, tid, name, cat, t.TS(start), float64(d)/float64(time.Microsecond), args)
}

// completeTS emits a complete span with explicit microsecond timestamps.
func (t *Tracer) completeTS(pid, tid int, name, cat string, tsUS, durUS float64, args map[string]any) {
	t.add(entry{Event: Event{Name: name, Cat: cat, Ph: "X", Ts: tsUS, Dur: durUS, Pid: pid, Tid: tid, Args: args}})
}

// Instant emits an instant event ("i") at the given wall-clock time.
func (t *Tracer) Instant(pid, tid int, name, cat string, at time.Time, args map[string]any) {
	t.instantTS(pid, tid, name, cat, t.TS(at), args)
}

// instantTS emits an instant event with an explicit microsecond timestamp.
func (t *Tracer) instantTS(pid, tid int, name, cat string, tsUS float64, args map[string]any) {
	t.add(entry{Event: Event{Name: name, Cat: cat, Ph: "i", Ts: tsUS, Pid: pid, Tid: tid, Args: args}})
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
// engine of a run names the same match lanes) replaces the name.
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

// events renders the lane metadata followed by everything held. Batches
// are rendered outside the lock.
func (t *Tracer) events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Event(nil), t.meta...)
	held := append([]entry(nil), t.held...)
	t.mu.Unlock()
	for _, e := range held {
		if e.render != nil {
			out = e.render(out)
		} else {
			out = append(out, e.Event)
		}
	}
	return out
}

// WriteJSON writes the lane metadata and every held event as a Chrome
// trace-event JSON array, one event per line.
func (t *Tracer) WriteJSON(w io.Writer) error {
	events := t.events()
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
