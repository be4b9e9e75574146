// Package matchprof is the match profiling subsystem: per-node cost
// attribution (folded from each cycle's task records by prun) rolled up at
// harvest time into ranked per-production tables, chain-depth and
// task-granularity histograms — the paper's Figure 6 inputs, live — plus an
// anomaly flight recorder that keeps the last N cycles' task records and
// dumps them when a cycle fails or recovers.
//
// Layering: rete owns the record and the storage it folds into
// (rete.TaskRec, rete.Prof); prun appends one record per task and folds
// them after each cycle; this package owns interpretation — production
// attribution, snapshots, the flight recorder — and the serving layer
// exposes it at /debug/match.
package matchprof

import (
	"sort"
	"sync"
	"time"

	"soarpsme/internal/obs"
	"soarpsme/internal/prun"
	"soarpsme/internal/rete"
)

// Options configure a Profile.
type Options struct {
	// SampleEvery wall-clock samples one task in N per worker (rounded down
	// to a power of two; 0 means 64). Sampling estimates real task latency
	// without a clock read per task; with a tracer attached every task is
	// timed anyway and every one is a sample.
	SampleEvery int
	// FlightCycles is the flight-recorder ring size: the last N cycles'
	// task records are retained for anomaly dumps. 0 means 16; negative
	// disables the recorder.
	FlightCycles int
	// FlightDir, when non-empty, is where anomaly dumps are written as
	// matchflight-*.json files. Empty keeps dumps in memory only (still
	// served at /debug/match/flight).
	FlightDir string
}

// CycleEvent is what the engine reports at the end of every match cycle.
type CycleEvent struct {
	// Cycle is the engine's cycle index (Engine.Cycles when the cycle ran).
	Cycle int64
	// Dur is the cycle's wall-clock duration.
	Dur time.Duration
	// Stats is the runtime's cycle summary; Stats.Trace, the cycle's task
	// records, is retained by the ring until overwritten.
	Stats prun.CycleStats
}

// Profile is one engine's match profiler: the bridge between the cells
// prun folds into rete.Prof and everything that reads them.
type Profile struct {
	nw   *rete.Network
	np   *rete.Prof
	opts Options

	// Pre-resolved metrics (nil-safe when no observer is attached).
	mDepth    *obs.Histogram
	mTrips    *obs.Counter
	mDumpErrs *obs.Counter

	mu       sync.Mutex
	session  string
	cycles   int64
	ring     []CycleEvent // flight ring, ring[head] is the oldest slot
	head     int
	ringN    int // number of valid entries
	lastDump *Dump
	dumpSeq  int64
}

// New builds a Profile for nw and installs its attribution cells on the
// network, which is what makes any runtime driving nw record its tasks.
// Must be called before any cycle runs. o may be nil.
func New(nw *rete.Network, opts Options, o *obs.Observer) *Profile {
	if opts.FlightCycles == 0 {
		opts.FlightCycles = 16
	}
	np := rete.NewProf(int(nw.MaxNodeID())+1, opts.SampleEvery)
	nw.Prof = np
	p := &Profile{nw: nw, np: np, opts: opts}
	if opts.FlightCycles > 0 {
		p.ring = make([]CycleEvent, opts.FlightCycles)
	}
	if o != nil {
		p.mDepth = o.Histogram("match_cycle_chain_depth", obs.ExpBuckets(1, 2, 8)...)
		p.mTrips = o.Counter("match_flight_trips_total")
		p.mDumpErrs = o.Counter("match_flight_dump_errors_total")
	}
	return p
}

// SetSession labels the profile's snapshots and dumps (the serving layer
// sets the session ID; CLIs leave it empty).
func (p *Profile) SetSession(s string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.session = s
	p.mu.Unlock()
}

// EndCycle ingests one finished cycle: records it in the flight ring,
// observes the cycle's chain depth, and trips the flight recorder on any
// anomaly — a failed cycle (watchdog or panic), a serial-fallback
// recovery, or a worker panic recovered in-cycle. It returns the dump when
// a trip fired, nil otherwise.
func (p *Profile) EndCycle(ev CycleEvent) *Dump {
	if p == nil {
		return nil
	}
	if d := ev.Stats.MaxDepth; d > 0 {
		p.mDepth.Observe(float64(d))
	}
	p.mu.Lock()
	p.cycles++
	if p.ring != nil {
		p.ring[p.head] = ev
		p.head = (p.head + 1) % len(p.ring)
		if p.ringN < len(p.ring) {
			p.ringN++
		}
	}
	var reason string
	switch {
	case ev.Stats.Failed:
		reason = "cycle failed: " + ev.Stats.Reason
	case ev.Stats.Recovered:
		reason = "serial fallback: " + ev.Stats.Reason
	case ev.Stats.Panics > 0:
		reason = "worker panic recovered: " + ev.Stats.Reason
	}
	if reason == "" {
		p.mu.Unlock()
		return nil
	}
	d := p.tripLocked(reason, ev.Cycle)
	p.mu.Unlock()
	return d
}

// Trip forces a flight-recorder dump with the given reason (the CLIs use it
// for on-demand dumps; anomalies go through EndCycle).
func (p *Profile) Trip(reason string) *Dump {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tripLocked(reason, p.cycles-1)
}

// ---- snapshots ----

// Totals sums attribution counters over a set of nodes (rete.ProfCell with
// JSON names).
type Totals struct {
	Acts     int64 `json:"acts"`
	Emitted  int64 `json:"emitted"`
	Nulls    int64 `json:"nulls"`
	Cost     int64 `json:"costUS"`
	SampleNS int64 `json:"sampleNS"`
	Samples  int64 `json:"samples"`
}

func (t *Totals) add(o Totals) {
	t.Acts += o.Acts
	t.Emitted += o.Emitted
	t.Nulls += o.Nulls
	t.Cost += o.Cost
	t.SampleNS += o.SampleNS
	t.Samples += o.Samples
}

// NullRate is the fraction of activations that emitted nothing.
func (t Totals) NullRate() float64 {
	if t.Acts == 0 {
		return 0
	}
	return float64(t.Nulls) / float64(t.Acts)
}

// ProdCost is one production's attributed match cost.
type ProdCost struct {
	Name string `json:"name"`
	// ChainDepth is the production's static beta-chain length (two-input
	// nodes from the top of the network to its P node) — the upper bound on
	// the dependent activation chains the production can generate.
	ChainDepth int `json:"chainDepth"`
	// Nodes is the number of beta nodes attributed to the production. A
	// node shared with an earlier production is attributed to that earlier
	// one (rete.Network.Owners), so shared-prefix cost is never double
	// counted.
	Nodes  int    `json:"nodes"`
	Totals Totals `json:"totals"`
	// Restructured marks productions the bilinear pass compiled into the
	// context+group pair-join shape.
	Restructured bool `json:"restructured,omitempty"`
	// NullRate and CostShare are derived: null activations over activations,
	// and this production's share of all attributed modeled cost.
	NullRate  float64 `json:"nullRate"`
	CostShare float64 `json:"costShare"`
	// MeanTaskNS estimates the production's real mean task latency from the
	// wall-clock samples (0 when nothing was sampled).
	MeanTaskNS float64 `json:"meanTaskNS"`
}

// Snapshot is a point-in-time harvest of the profile: ranked hot
// productions, global histograms, and totals. Safe to take while cycles
// run — it reads the counters as of a cycle boundary.
type Snapshot struct {
	Session string `json:"session,omitempty"`
	Taken   string `json:"taken"`
	Cycles  int64  `json:"cycles"`
	Nodes   int    `json:"nodes"`

	Totals   Totals  `json:"totals"`
	NullRate float64 `json:"nullRate"`

	// Productions is ranked by attributed modeled cost, descending.
	Productions []ProdCost `json:"productions"`
	// Unattributed sums nodes no production spine claims (e.g. NCC partner
	// sub-chains); kept separate so CostShare still sums to ~1.
	Unattributed Totals `json:"unattributed"`

	// DepthHist bucket i counts tasks at chain depth i+1 (last bucket:
	// deeper). CostHist bucket i counts tasks with modeled cost in
	// [2^i, 2^(i+1)) µs — the task-granularity distribution.
	DepthHist []int64 `json:"depthHist"`
	CostHist  []int64 `json:"costHist"`
}

// Snapshot harvests the profile. Concurrency-safe; called by the HTTP
// debug endpoints while match cycles run.
func (p *Profile) Snapshot() *Snapshot {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	session := p.session
	cycles := p.cycles
	p.mu.Unlock()
	return p.buildSnapshot(session, cycles)
}

// buildSnapshot does the harvest without touching p.mu (the counters and
// the network's production list each take their own lock), so tripLocked
// can call it while holding the mutex.
func (p *Profile) buildSnapshot(session string, cycles int64) *Snapshot {
	cells, depth, cost := p.np.Snapshot()

	s := &Snapshot{
		Session:   session,
		Taken:     time.Now().UTC().Format(time.RFC3339Nano),
		Cycles:    cycles,
		Nodes:     len(cells),
		DepthHist: depth[:],
		CostHist:  cost[:],
	}

	// Each node's cell goes to the production that owns the node
	// (rete.Network.Owners: first spine in definition order), so shared-prefix
	// cost is never counted twice; what no spine claims is Unattributed.
	prods, owner := p.nw.Owners()
	pcs := make([]ProdCost, len(prods))
	for i, pr := range prods {
		pcs[i] = ProdCost{Name: pr.Name, Restructured: pr.Restructured, ChainDepth: pr.ChainDepth()}
	}
	for id, o := range owner {
		if o < 0 {
			continue
		}
		pcs[o].Nodes++
		if id < len(cells) {
			pcs[o].Totals.add(Totals(cells[id]))
		}
	}
	for id := range cells {
		c := Totals(cells[id])
		s.Totals.add(c)
		if id >= len(owner) || owner[id] < 0 {
			s.Unattributed.add(c)
		}
	}
	return s.rank(pcs)
}

// rank fills in the snapshot's derived rates and its Productions: those of
// pcs that saw any activity, by attributed modeled cost, descending.
func (s *Snapshot) rank(pcs []ProdCost) *Snapshot {
	s.NullRate = s.Totals.NullRate()
	for _, pc := range pcs {
		if pc.Totals.Acts == 0 && pc.Totals.Cost == 0 {
			continue
		}
		pc.NullRate = pc.Totals.NullRate()
		if s.Totals.Cost > 0 {
			pc.CostShare = float64(pc.Totals.Cost) / float64(s.Totals.Cost)
		}
		if pc.Totals.Samples > 0 {
			pc.MeanTaskNS = float64(pc.Totals.SampleNS) / float64(pc.Totals.Samples)
		}
		s.Productions = append(s.Productions, pc)
	}
	sort.Slice(s.Productions, func(i, j int) bool {
		a, b := s.Productions[i], s.Productions[j]
		if a.Totals.Cost != b.Totals.Cost {
			return a.Totals.Cost > b.Totals.Cost
		}
		return a.Name < b.Name
	})
	return s
}

// Merge folds several snapshots (one per session) into an aggregate view:
// totals and histograms sum, productions sum by name and re-rank.
func Merge(snaps []*Snapshot) *Snapshot {
	out := &Snapshot{
		Session:   "aggregate",
		Taken:     time.Now().UTC().Format(time.RFC3339Nano),
		DepthHist: make([]int64, rete.DepthBuckets),
		CostHist:  make([]int64, rete.CostBuckets),
	}
	byName := map[string]*ProdCost{}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		out.Cycles += s.Cycles
		if s.Nodes > out.Nodes {
			out.Nodes = s.Nodes
		}
		out.Totals.add(s.Totals)
		out.Unattributed.add(s.Unattributed)
		for i, v := range s.DepthHist {
			if i < len(out.DepthHist) {
				out.DepthHist[i] += v
			}
		}
		for i, v := range s.CostHist {
			if i < len(out.CostHist) {
				out.CostHist[i] += v
			}
		}
		for _, pc := range s.Productions {
			agg := byName[pc.Name]
			if agg == nil {
				cp := pc
				byName[pc.Name] = &cp
				continue
			}
			agg.Totals.add(pc.Totals)
			if pc.ChainDepth > agg.ChainDepth {
				agg.ChainDepth = pc.ChainDepth
			}
			if pc.Nodes > agg.Nodes {
				agg.Nodes = pc.Nodes
			}
			agg.Restructured = agg.Restructured || pc.Restructured
		}
	}
	pcs := make([]ProdCost, 0, len(byName))
	for _, pc := range byName {
		pcs = append(pcs, *pc)
	}
	return out.rank(pcs)
}
