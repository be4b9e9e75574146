package matchprof

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"soarpsme/internal/obs"
	"soarpsme/internal/prun"
)

// CycleDump is one recorded cycle in a flight dump.
type CycleDump struct {
	Cycle     int64          `json:"cycle"`
	DurUS     float64        `json:"durUS"`
	Tasks     int            `json:"tasks"`
	Workers   int            `json:"workers"`
	Failed    bool           `json:"failed,omitempty"`
	Recovered bool           `json:"recovered,omitempty"`
	Reason    string         `json:"reason,omitempty"`
	Trace     []prun.TaskRec `json:"trace,omitempty"`
}

// Dump is a flight-recorder dump: the retained cycles around an anomaly,
// rendered both structurally (Cycles) and as Chrome trace events
// (TraceEvents, by the same renderer as a -trace file, on the modeled
// timeline: each worker lane replays its tasks back to back at their
// modeled cost). The top-level JSON object is directly loadable in
// chrome://tracing / Perfetto, which treat the extra keys as metadata.
type Dump struct {
	Reason    string      `json:"reason"`
	Session   string      `json:"session,omitempty"`
	TrippedAt string      `json:"trippedAt"`
	Cycle     int64       `json:"cycle"`
	Cycles    []CycleDump `json:"cycles"`
	Events    []obs.Event `json:"traceEvents"`
	Snapshot  *Snapshot   `json:"snapshot"`
	// Path is where the dump was written ("" when FlightDir is unset).
	Path string `json:"path,omitempty"`
}

// tripLocked assembles a dump from the ring (oldest first), publishes it as
// the profile's last dump, and writes it to FlightDir when configured.
// Callers hold p.mu; the snapshot harvest takes only rete.Prof's own lock.
func (p *Profile) tripLocked(reason string, cycle int64) *Dump {
	d := &Dump{
		Reason:    reason,
		Session:   p.session,
		TrippedAt: time.Now().UTC().Format(time.RFC3339Nano),
		Cycle:     cycle,
	}
	for i := 0; i < p.ringN; i++ {
		d.Cycles = append(d.Cycles, cycleDump(p.retained(i)))
	}
	d.Events = p.ringEvents()
	d.Snapshot = p.buildSnapshot(p.session, p.cycles)
	p.mTrips.Inc()
	if p.opts.FlightDir != "" {
		p.dumpSeq++
		name := fmt.Sprintf("matchflight-%s-%d.json", time.Now().UTC().Format("20060102T150405"), p.dumpSeq)
		path := filepath.Join(p.opts.FlightDir, name)
		if err := writeDump(path, d); err != nil {
			p.mDumpErrs.Inc()
		} else {
			d.Path = path
		}
	}
	p.lastDump = d
	return d
}

// LastDump returns the most recent dump, nil if nothing has tripped.
func (p *Profile) LastDump() *Dump {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastDump
}

// retained returns the i-th oldest cycle in the ring. ring[head] is the next
// slot to overwrite = the oldest entry once the ring has wrapped; before
// wrap the oldest is slot 0.
func (p *Profile) retained(i int) *CycleEvent {
	return &p.ring[(p.head+len(p.ring)-p.ringN+i)%len(p.ring)]
}

func cycleDump(ev *CycleEvent) CycleDump {
	return CycleDump{
		Cycle:     ev.Cycle,
		DurUS:     float64(ev.Dur) / float64(time.Microsecond),
		Tasks:     ev.Stats.Tasks,
		Workers:   ev.Stats.Workers,
		Failed:    ev.Stats.Failed,
		Recovered: ev.Stats.Recovered,
		Reason:    ev.Stats.Reason,
		Trace:     ev.Stats.Trace,
	}
}

// ringEvents renders the retained cycles through the runtime's one span
// renderer on the modeled timeline and brackets each with a cycle span on
// tid 0. Cycles are laid end to end with a separator gap, so the same ring
// always renders the same trace.
func (p *Profile) ringEvents() []obs.Event {
	var evs []obs.Event
	var end float64 // where the previous cycle ended
	const gap = 100 // µs between cycles, purely visual
	for i := 0; i < p.ringN; i++ {
		c := p.retained(i)
		n0 := len(evs)
		evs = prun.AppendSpans(evs, c.Stats.Trace, 0, end, false)
		hi := end
		for _, e := range evs[n0:] {
			hi = max(hi, e.Ts+e.Dur)
		}
		name := fmt.Sprintf("cycle %d", c.Cycle)
		args := map[string]any{"tasks": c.Stats.Tasks, "workers": c.Stats.Workers, "wall-us": float64(c.Dur) / float64(time.Microsecond)}
		if c.Stats.Reason != "" {
			args["reason"] = c.Stats.Reason
			name += " [" + c.Stats.Reason + "]"
		}
		evs = append(evs, obs.Event{Name: name, Cat: "cycle", Ph: "X", Ts: end, Dur: hi - end, Pid: 0, Tid: 0, Args: args})
		end = hi + gap
	}
	return evs
}

func writeDump(path string, d *Dump) error {
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadDump loads a dump file written by the flight recorder (psmestat's
// offline mode).
func ReadDump(path string) (*Dump, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Dump
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("matchprof: %s: %w", path, err)
	}
	return &d, nil
}
