package exp

import (
	"fmt"
	"sort"
	"strings"

	"soarpsme/internal/matchprof"
	"soarpsme/internal/prun"
	"soarpsme/internal/rete"
	"soarpsme/internal/sim"
	"soarpsme/internal/stats"
	"soarpsme/internal/tasks/eightpuzzle"
	"soarpsme/internal/tasks/strips"
)

// AblationMemories quantifies §6.1's hashing claim: hashed token memories
// vs linear lists ("Hashing the contents of the associated memory nodes,
// instead of storing them in linear lists, reduces the number of
// comparisons performed during a node-activation").
func AblationMemories(l *Lab) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Ablation (§6.1): hashed token memories vs linear lists (Strips, without chunking)",
		Headers: []string{"Memories", "Join comparisons", "Uniproc time (s)", "Tasks"},
	}
	for _, linear := range []bool{false, true} {
		lab := NewLab()
		lab.opts.LinearMemories = linear
		c, err := lab.SoarTask("strips-mem", strips.Default(), NoChunk)
		if err != nil {
			return nil, err
		}
		comparisons := c.eng.NW.Stats.Comparisons.Load()
		one := sim.MultiCycle(c.Traces, sim.Config{Processes: 1, QueueOp: QueueOp})
		name := "hashed (per-line locks)"
		if linear {
			name = "linear lists (no hashing)"
		}
		t.AddRow(name,
			fmt.Sprintf("%d", comparisons),
			fmt.Sprintf("%.1f", float64(one.Makespan)/1e6),
			fmt.Sprintf("%d", c.Tasks))
	}
	return t, nil
}

// AblationUnlink quantifies the match-time filtering the paper's engine
// lacked: left/right unlinking runs activations against provably empty
// opposite memories inline (no task scheduled, no opposite-side scan), and
// hashed alpha dispatch replaces the linear constant-test scan with one map
// probe per tested field. The conflict sets are byte-identical either way
// (rete's conformance test proves it); the ablation measures how much
// scheduled work and modeled time the filter removes.
func AblationUnlink(l *Lab) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Ablation: left/right unlinking + hashed alpha dispatch (without chunking)",
		Headers: []string{"Task", "Unlink", "Tasks", "Suppressed", "Const tests", "Uniproc time (s)"},
	}
	for _, on := range []bool{false, true} {
		lab := NewLab()
		lab.SetUnlink(on)
		caps, err := lab.Workloads(NoChunk)
		if err != nil {
			return nil, err
		}
		name := "off (paper engine)"
		if on {
			name = "on"
		}
		for i, c := range caps {
			one := sim.MultiCycle(c.Traces, sim.Config{Processes: 1, QueueOp: QueueOp})
			t.AddRow(TaskNames[i], name,
				fmt.Sprintf("%d", c.Tasks),
				fmt.Sprintf("%d", c.NullSuppressed),
				fmt.Sprintf("%d", c.eng.NW.Stats.ConstTests.Load()),
				fmt.Sprintf("%.1f", float64(one.Makespan)/1e6))
		}
	}
	return t, nil
}

// AblationBilinear quantifies the automatic bilinear restructuring pass on
// the learning workload: the cypress 26-CE production chains (and its
// 51-CE chunks, added at run time) are split into balanced pair-join trees,
// shortening the dependent-activation chains the paper names as the second
// parallelism limiter. Conflict sets are byte-identical across
// organizations (the engine conformance test proves it); the ablation
// measures the chain-depth reduction and the per-cycle speedup lift at
// 8-13 simulated processes, with unlink default-on. "auto" must track
// "all" here (every cypress production qualifies) and both must lift the
// high-process speedups over "off".
func AblationBilinear(l *Lab) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Ablation: automatic bilinear restructuring (cypress, chunks added at run time, unlink on)",
		Headers: []string{"Bilinear", "Restructured", "Max chain depth", "Speedup @8", "Speedup @11", "Speedup @13", "Tasks"},
	}
	for _, org := range []rete.Organization{rete.Linear, rete.Bilinear, rete.BilinearAuto} {
		lab := NewLab()
		lab.SetUnlink(true)
		lab.opts.Organization = org
		c, err := lab.Cypress(DuringChunk)
		if err != nil {
			return nil, err
		}
		restructured := 0
		for _, p := range c.eng.NW.Productions() {
			if p.Restructured {
				restructured++
			}
		}
		// Max chain depth from the matchprof attribution snapshot — the
		// left+right spine walk, so restructured right sub-chains count.
		maxDepth := 0
		if c.Prof != nil {
			for _, pc := range c.Prof.Productions {
				if pc.ChainDepth > maxDepth {
					maxDepth = pc.ChainDepth
				}
			}
		}
		t.AddRow(org.String(),
			fmt.Sprintf("%d", restructured),
			fmt.Sprintf("%d", maxDepth),
			fmt.Sprintf("%.2f", sim.RunSpeedup(c.Traces, 8, sim.MultiQueue, QueueOp)),
			fmt.Sprintf("%.2f", sim.RunSpeedup(c.Traces, 11, sim.MultiQueue, QueueOp)),
			fmt.Sprintf("%.2f", sim.RunSpeedup(c.Traces, 13, sim.MultiQueue, QueueOp)),
			fmt.Sprintf("%d", c.Tasks))
	}
	return t, nil
}

// AblationAsync estimates the gain of the paper's first future-work item
// (§7): firing elaboration cycles asynchronously, synchronizing only at
// decision boundaries. The estimate merges each run's per-cycle task DAGs
// into one DAG with the cycle barriers removed — an upper bound, since
// real cross-cycle data dependencies would restore some ordering.
func AblationAsync(l *Lab) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Future work (§7): asynchronous elaboration — speedup at 11 processes with cycle barriers removed (upper bound)",
		Headers: []string{"Task", "Synchronous (Fig 6-4)", "Asynchronous (merged DAG)"},
	}
	caps, err := l.Workloads(NoChunk)
	if err != nil {
		return nil, err
	}
	for i, c := range caps {
		syncSp := sim.RunSpeedup(c.Traces, 11, sim.MultiQueue, QueueOp)
		var merged []prun.TaskRec
		for _, tr := range c.Traces {
			merged = append(merged, tr...)
		}
		asyncSp := sim.Speedup(merged, 11, sim.MultiQueue, QueueOp)
		t.AddRow(TaskNames[i],
			fmt.Sprintf("%.2f", syncSp),
			fmt.Sprintf("%.2f", asyncSp))
	}
	return t, nil
}

// AblationSharing reruns the Strips workload with two-input-node sharing
// disabled and reports the network growth (§5.1: "20-30% loss due to an
// unshared network").
func AblationSharing(l *Lab) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Ablation (§5.1): two-input-node sharing (Strips during-chunking network)",
		Headers: []string{"Sharing", "Two-input nodes", "New nodes per chunk"},
	}
	for _, share := range []bool{true, false} {
		lab := NewLab()
		lab.opts.ShareBeta = share
		c, err := lab.SoarTask("strips-share", strips.Default(), DuringChunk)
		if err != nil {
			return nil, err
		}
		perChunk := 0.0
		if n := len(c.ChunkCEs); n > 0 {
			total := 0
			for _, k := range c.ChunkNew2In {
				total += k
			}
			perChunk = float64(total) / float64(n)
		}
		name := "shared"
		if !share {
			name = "unshared"
		}
		t.AddRow(name,
			fmt.Sprintf("%d", c.eng.NW.TwoInputNodes()),
			fmt.Sprintf("%.1f", perChunk))
	}
	return t, nil
}

// AblationAdaptiveQueues quantifies §6.2's scheduling observation: bursts
// want one queue per process, cycle tails want one or two. An oracle picks
// the best queue count per cycle (1, 2, 4, or one per process) — the gain
// available to the adaptive switching the paper says is hard because
// "detecting the end of a cycle is very difficult".
func AblationAdaptiveQueues(l *Lab) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Scheduling (§6.2): per-cycle oracle queue-count selection at 11 processes",
		Headers: []string{"Task", "Multi-queue speedup", "Oracle speedup", "Oracle gain"},
	}
	counts := []int{1, 2, 4, 11}
	caps, err := l.Workloads(NoChunk)
	if err != nil {
		return nil, err
	}
	for i, c := range caps {
		var uni, multi, oracle int64
		for _, tr := range c.Traces {
			uni += sim.Simulate(tr, sim.Config{Processes: 1, QueueOp: QueueOp}).Makespan
			best := int64(1) << 62
			for _, q := range counts {
				r := sim.Simulate(tr, sim.Config{Processes: 11, Policy: sim.MultiQueue, Queues: q, QueueOp: QueueOp})
				if r.Makespan < best {
					best = r.Makespan
				}
			}
			oracle += best
			multi += sim.Simulate(tr, sim.Config{Processes: 11, Policy: sim.MultiQueue, QueueOp: QueueOp}).Makespan
		}
		ms := float64(uni) / float64(multi)
		os := float64(uni) / float64(oracle)
		t.AddRow(TaskNames[i],
			fmt.Sprintf("%.2f", ms),
			fmt.Sprintf("%.2f", os),
			fmt.Sprintf("%.0f%%", 100*(os-ms)/ms))
	}
	return t, nil
}

// LongRunChunking implements §7's "effects of chunking over long periods":
// a sequence of fixed-budget Eight-puzzle episodes with the learned chunks
// carried from trial to trial. As chunks accumulate, the match volume per
// episode and the available parallelism grow — the regime where the paper
// argues the 10-20-fold empirical parallelism bound of non-learning
// production systems no longer applies (§6.3).
func LongRunChunking(l *Lab) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Future work (§7): chunking over a sequence of trials (Eight-puzzle pool, 150-decision episodes)",
		Headers: []string{"Trial", "Moves", "Match tasks", "Cumulative chunks", "2-input nodes", "Speedup @13"},
	}
	prev := (*Capture)(nil)
	for i, b := range eightpuzzle.Instances() {
		lab := NewLab()
		key := fmt.Sprintf("longrun-%d", i)
		task := eightpuzzle.Task(b)
		// Seed with all chunks learned so far (freshly built + carried).
		cap, err := lab.soarTaskSeeded(key, task, prev)
		if err != nil {
			return nil, err
		}
		cumulative := 0
		for _, p := range cap.eng.NW.Productions() {
			if isChunkName(p.Name) || strings.HasPrefix(p.Name, "xfer-") {
				cumulative++
			}
		}
		t.AddRow(
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%d", cap.Moves),
			fmt.Sprintf("%d", cap.Tasks),
			fmt.Sprintf("%d", cumulative),
			fmt.Sprintf("%d", cap.eng.NW.TwoInputNodes()),
			fmt.Sprintf("%.2f", sim.RunSpeedup(cap.Traces, 13, sim.MultiQueue, QueueOp)))
		prev = cap
	}
	return t, nil
}

// Diagnosis is the diagnostic tool the paper proposes in §7: "to identify
// long chains, the system can look at the last few node activations on the
// cycles with low parallelism", then suggest adaptive changes such as
// bilinear networks.
type Diagnosis struct {
	CycleTasks   int
	Speedup      float64
	CriticalPath int
	// FailedPops/Steals are the simulated queue diagnostics of the cycle
	// at the diagnosis process count (§6.1).
	FailedPops int64
	Steals     int64
	// Cause is "small-cycle", "long-chain", or "tail-end".
	Cause string
	// Production owning the node where the critical path terminates.
	Production string
	// ChainDepth and NullRate describe that production across the whole
	// run, sourced from the engine's matchprof attribution snapshot: the
	// static length of its two-input chain and the fraction of its
	// activations that emitted nothing.
	ChainDepth int
	NullRate   float64
	Suggestion string
}

// Diagnose simulates every cycle of a capture at the given process count
// and explains the low-speedup ones (below the threshold).
func Diagnose(c *Capture, procs int, threshold float64) []Diagnosis {
	prods, owner := c.eng.NW.Owners()
	// Per-production run-wide attribution (chain depth, null rate) from the
	// matchprof snapshot harvested at capture time.
	prodProf := map[string]matchprof.ProdCost{}
	if c.Prof != nil {
		for _, p := range c.Prof.Productions {
			prodProf[p.Name] = p
		}
	}
	var out []Diagnosis
	for _, tr := range c.Traces {
		if len(tr) < 5 {
			continue
		}
		one := sim.Simulate(tr, sim.Config{Processes: 1, Policy: sim.SingleQueue, QueueOp: QueueOp})
		par := sim.Simulate(tr, sim.Config{Processes: procs, Policy: sim.MultiQueue, QueueOp: QueueOp})
		sp := 1.0
		if par.Makespan > 0 {
			sp = float64(one.Makespan) / float64(par.Makespan)
		}
		if sp >= threshold {
			continue
		}
		d := Diagnosis{CycleTasks: len(tr), Speedup: sp, FailedPops: par.FailedPops, Steals: par.Steals}
		// Critical path and its terminal node.
		depth := make(map[int64]int, len(tr))
		var tail prun.TaskRec
		for _, r := range tr {
			dd := 1
			if pd, ok := depth[r.Parent]; ok {
				dd = pd + 1
			}
			depth[r.Seq] = dd
			if dd > d.CriticalPath {
				d.CriticalPath = dd
				tail = r
			}
		}
		if o := owner[tail.Node]; o >= 0 {
			d.Production = prods[o].Name
		}
		if pp, ok := prodProf[d.Production]; ok {
			d.ChainDepth = pp.ChainDepth
			d.NullRate = pp.NullRate
		}
		switch {
		case len(tr) < 30:
			d.Cause = "small-cycle"
			d.Suggestion = "overhead-bound: batch with neighbouring cycles (asynchronous elaboration, §7)"
		case d.CriticalPath > 10 && float64(d.CriticalPath) > 0.2*float64(len(tr)):
			d.Cause = "long-chain"
			d.Suggestion = fmt.Sprintf("restructure %s as a constrained bilinear network (Fig 6-8)", d.Production)
		default:
			d.Cause = "tail-end"
			d.Suggestion = "uneven task availability late in the cycle; fewer queues near quiescence (§6.2)"
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CycleTasks > out[j].CycleTasks })
	return out
}

// DiagnoseTable renders the diagnosis of the Eight-puzzle during-chunking
// run — the paper's own example of cycles with many tasks but low speedup.
func DiagnoseTable(l *Lab) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Diagnostics (§7): low-speedup cycles, Eight-puzzle during chunking (11 processes, speedup < 5)",
		Headers: []string{"Tasks", "Speedup", "Critical path", "Chain depth", "Null rate", "Failed pops", "Steals", "Cause", "Suggestion"},
	}
	c, err := l.EightPuzzle(DuringChunk)
	if err != nil {
		return nil, err
	}
	diags := Diagnose(c, 11, 5)
	max := 12
	for i, d := range diags {
		if i >= max {
			break
		}
		t.AddRow(
			fmt.Sprintf("%d", d.CycleTasks),
			fmt.Sprintf("%.2f", d.Speedup),
			fmt.Sprintf("%d", d.CriticalPath),
			fmt.Sprintf("%d", d.ChainDepth),
			fmt.Sprintf("%.0f%%", 100*d.NullRate),
			fmt.Sprintf("%d", d.FailedPops),
			fmt.Sprintf("%d", d.Steals),
			d.Cause,
			d.Suggestion)
	}
	if len(diags) > max {
		t.AddRow(fmt.Sprintf("(+%d more)", len(diags)-max), "", "", "", "", "", "", "", "")
	}
	// The live runtime's own queue diagnostics for the whole capture — the
	// counters prun records but the harness previously dropped. FailedPops
	// excludes quiescence-detection probes (one per worker per cycle, now
	// counted separately), which used to inflate this number by exactly one
	// per sequential capture cycle.
	t.AddRow("(live run)", "", "", "", "",
		fmt.Sprintf("%d", c.FailedPops),
		fmt.Sprintf("%d", c.Steals),
		"runtime totals",
		fmt.Sprintf("failed pops / steals observed by prun across all cycles (%d quiescence probes)", c.TermProbes))
	t.AddRow("(match filtering)", "", "", "", "", "", "",
		"runtime totals",
		fmt.Sprintf("null activations suppressed %d (unlink=%v); alpha dispatch %d hits / %d misses — see abl-unlink",
			c.NullSuppressed, c.eng.NW.Opts.Unlink, c.AlphaHits, c.AlphaMisses))
	if p := c.Prof; p != nil {
		hottest := "-"
		if len(p.Productions) > 0 {
			h := p.Productions[0]
			hottest = fmt.Sprintf("hottest %s: chain %d, %.0f%% null, %.0f%% of modeled cost",
				h.Name, h.ChainDepth, 100*h.NullRate, 100*h.CostShare)
		}
		t.AddRow("(match profile)", "", "", "", fmt.Sprintf("%.0f%%", 100*p.NullRate), "", "",
			"runtime totals",
			fmt.Sprintf("%d activations over %d nodes; %s", p.Totals.Acts, p.Nodes, hottest))
	}
	return t, nil
}
