package exp

import (
	"fmt"
	"sort"

	"soarpsme/internal/matchprof"
	"soarpsme/internal/rete"
	"soarpsme/internal/sim"
	"soarpsme/internal/tasks/eightpuzzle"
)

// ablationMemories quantifies §6.1's hashing claim: hashed token memories
// vs linear lists ("Hashing the contents of the associated memory nodes,
// instead of storing them in linear lists, reduces the number of
// comparisons performed during a node-activation").
func ablationMemories(l *Lab) (*table, error) {
	t := newTable("Ablation (§6.1): hashed token memories vs linear lists (Strips, without chunking)",
		"Memories", "Join comparisons", "Uniproc time (s)", "Tasks")
	for _, linear := range []bool{false, true} {
		c, err := l.strips(noChunk, func(o *rete.Options) { o.LinearMemories = linear })
		if err != nil {
			return nil, err
		}
		comparisons := c.eng.NW.Stats.Comparisons.Load()
		one := uniproc(c.cycles)
		name := "hashed (per-line locks)"
		if linear {
			name = "linear lists (no hashing)"
		}
		t.add(name, count(comparisons), num("%.1f", float64(one.Makespan)/1e6), count(c.tasks))
	}
	return t, nil
}

// ablationUnlink quantifies the match-time filtering the paper's engine
// lacked: left/right unlinking runs activations against provably empty
// opposite memories inline (no task scheduled, no opposite-side scan), and
// hashed alpha dispatch replaces the linear constant-test scan with one map
// probe per tested field. The conflict sets are byte-identical either way
// (rete's conformance test proves it); the ablation measures how much
// scheduled work and modeled time the filter removes.
func ablationUnlink(l *Lab) (*table, error) {
	t := newTable("Ablation: left/right unlinking + hashed alpha dispatch (without chunking)",
		"Task", "Unlink", "Tasks", "Suppressed", "Const tests", "Uniproc time (s)")
	for _, on := range []bool{false, true} {
		caps, err := l.workloads(noChunk, func(o *rete.Options) { o.Unlink = on })
		if err != nil {
			return nil, err
		}
		name := "off (paper engine)"
		if on {
			name = "on"
		}
		for i, c := range caps {
			one := uniproc(c.cycles)
			st := &c.eng.NW.Stats
			t.add(taskNames[i], name, count(c.tasks), count(st.NullSuppressed.Load()),
				count(st.ConstTests.Load()), num("%.1f", float64(one.Makespan)/1e6))
		}
	}
	return t, nil
}

// ablationBilinear quantifies the automatic bilinear restructuring pass on
// the learning workload: the cypress 26-CE production chains (and its
// 51-CE chunks, added at run time) are split into balanced pair-join trees,
// shortening the dependent-activation chains the paper names as the second
// parallelism limiter. Conflict sets are byte-identical across
// organizations (the engine conformance test proves it); the ablation
// measures the chain depth and the speedup at 8-13 simulated processes,
// with unlink on.
func ablationBilinear(l *Lab) (*table, error) {
	t := newTable("Ablation: automatic bilinear restructuring (cypress, chunks added at run time, unlink on)",
		"Bilinear", "Restructured", "Max chain depth", "Speedup @8", "Speedup @11", "Speedup @13", "Tasks")
	for _, org := range []rete.Organization{rete.Linear, rete.Bilinear, rete.BilinearAuto} {
		c, err := l.cypress(duringChunk, func(o *rete.Options) {
			o.Unlink = true
			o.Organization = org
		})
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
		if c.prof != nil {
			for _, pc := range c.prof.Productions {
				if pc.ChainDepth > maxDepth {
					maxDepth = pc.ChainDepth
				}
			}
		}
		one := uniproc(c.cycles)
		t.add(org.String(), count(restructured), count(maxDepth),
			num("%.2f", speedup(one, replay(c.cycles, 8, 0))),
			num("%.2f", speedup(one, replay(c.cycles, 11, 0))),
			num("%.2f", speedup(one, replay(c.cycles, 13, 0))), count(c.tasks))
	}
	return t, nil
}

// ablationAsync estimates the gain of the paper's first future-work item
// (§7): firing elaboration cycles asynchronously, synchronizing only at
// decision boundaries. The estimate merges each run's per-cycle task DAGs
// into one DAG with the cycle barriers removed — an upper bound, since
// real cross-cycle data dependencies would restore some ordering.
func ablationAsync(l *Lab) (*table, error) {
	t := newTable("Future work (§7): asynchronous elaboration — speedup at 11 processes with cycle barriers removed (upper bound)",
		"Task", "Synchronous (Fig 6-4)", "Asynchronous (merged DAG)")
	caps, err := l.workloads(noChunk)
	if err != nil {
		return nil, err
	}
	for i, c := range caps {
		var merged sim.Cycle
		for _, cyc := range c.cycles {
			merged = append(merged, cyc...)
		}
		// One process never waits at a barrier, so the merged DAG's
		// uniprocessor replay is the synchronous one's.
		one := uniproc(c.cycles)
		syncSp := speedup(one, replay(c.cycles, 11, 0))
		asyncSp := speedup(one, replay([]sim.Cycle{merged}, 11, 0))
		t.add(taskNames[i], num("%.2f", syncSp), num("%.2f", asyncSp))
	}
	return t, nil
}

// ablationSharing reruns the Strips workload with two-input-node sharing
// disabled and reports the network growth (§5.1: "20-30% loss due to an
// unshared network").
func ablationSharing(l *Lab) (*table, error) {
	t := newTable("Ablation (§5.1): two-input-node sharing (Strips during-chunking network)",
		"Sharing", "Two-input nodes", "New nodes per chunk")
	for _, share := range []bool{true, false} {
		c, err := l.strips(duringChunk, func(o *rete.Options) { o.ShareBeta = share })
		if err != nil {
			return nil, err
		}
		name := "shared"
		if !share {
			name = "unshared"
		}
		t.add(name, count(c.eng.NW.TwoInputNodes()), num("%.1f", mean(c.chunkNew2In)))
	}
	return t, nil
}

// ablationAdaptiveQueues quantifies §6.2's scheduling observation: bursts
// want one queue per process, cycle tails want one or two. An oracle picks
// the best queue count per cycle (1, 2, 4, or one per process) — the gain
// available to the adaptive switching the paper says is hard because
// "detecting the end of a cycle is very difficult".
func ablationAdaptiveQueues(l *Lab) (*table, error) {
	t := newTable("Scheduling (§6.2): per-cycle oracle queue-count selection at 11 processes",
		"Task", "Multi-queue speedup", "Oracle speedup", "Oracle gain")
	counts := []int{1, 2, 4, 11}
	caps, err := l.workloads(noChunk)
	if err != nil {
		return nil, err
	}
	for i, c := range caps {
		var uni, multi, oracle int64
		for k := range c.cycles {
			cyc := c.cycles[k : k+1]
			uni += uniproc(cyc).Makespan
			best := int64(1) << 62
			for _, q := range counts {
				best = min(best, replay(cyc, 11, q).Makespan)
			}
			oracle += best
			multi += replay(cyc, 11, 0).Makespan
		}
		ms := float64(uni) / float64(multi)
		os := float64(uni) / float64(oracle)
		t.add(taskNames[i], num("%.2f", ms), num("%.2f", os), num("%.0f%%", 100*(os-ms)/ms))
	}
	return t, nil
}

// longRunChunking implements §7's "effects of chunking over long periods":
// a sequence of fixed-budget Eight-puzzle episodes with the learned chunks
// carried from trial to trial. As chunks accumulate, the match volume per
// episode and the available parallelism grow — the regime where the paper
// argues the 10-20-fold empirical parallelism bound of non-learning
// production systems no longer applies (§6.3).
func longRunChunking(l *Lab) (*table, error) {
	t := newTable("Future work (§7): chunking over a sequence of trials (Eight-puzzle pool, 150-decision episodes)",
		"Trial", "Moves", "Match tasks", "Cumulative chunks", "2-input nodes", "Speedup @13")
	for i := range eightpuzzle.Instances() {
		c, err := l.longRun(i + 1)
		if err != nil {
			return nil, err
		}
		cumulative := 0
		for _, p := range c.eng.NW.Productions() {
			if isChunkName(p.Name) {
				cumulative++
			}
		}
		t.add(count(i+1), count(c.moves), count(c.tasks), count(cumulative),
			count(c.eng.NW.TwoInputNodes()),
			num("%.2f", speedup(uniproc(c.cycles), replay(c.cycles, 13, 0))))
	}
	return t, nil
}

// diagnosis is the diagnostic tool the paper proposes in §7: "to identify
// long chains, the system can look at the last few node activations on the
// cycles with low parallelism", then suggest adaptive changes such as
// bilinear networks.
type diagnosis struct {
	cycleTasks   int
	speedup      float64
	criticalPath int
	// failedPops/steals are the simulated queue diagnostics of the cycle
	// at the diagnosis process count (§6.1).
	failedPops int64
	steals     int64
	// cause is "small-cycle", "long-chain", or "tail-end".
	cause string
	// production owning the node where the critical path terminates.
	production string
	// chainDepth and nullRate describe that production across the whole
	// run, sourced from the engine's matchprof attribution snapshot: the
	// static length of its two-input chain and the fraction of its
	// activations that emitted nothing.
	chainDepth int
	nullRate   float64
	suggestion string
}

// diagnose simulates every cycle of a capture at the given process count
// and explains the low-speedup ones (below the threshold).
func diagnose(c *capture, procs int, threshold float64) []diagnosis {
	prods, owner := c.eng.NW.Owners()
	// Per-production run-wide attribution (chain depth, null rate) from the
	// matchprof snapshot harvested at capture time.
	prodProf := map[string]matchprof.ProdCost{}
	if c.prof != nil {
		for _, p := range c.prof.Productions {
			prodProf[p.Name] = p
		}
	}
	var out []diagnosis
	for i := range c.cycles {
		cyc, n := c.cycles[i:i+1], len(c.cycles[i])
		if n < 5 {
			continue
		}
		par := replay(cyc, procs, 0)
		sp := speedup(uniproc(cyc), par)
		if sp >= threshold {
			continue
		}
		// Critical path and its terminal node.
		ch := c.chains[i]
		d := diagnosis{cycleTasks: n, speedup: sp, criticalPath: int(ch.depth), failedPops: par.FailedPops, steals: par.Steals}
		if o := owner[ch.tail]; o >= 0 {
			d.production = prods[o].Name
		}
		if pp, ok := prodProf[d.production]; ok {
			d.chainDepth = pp.ChainDepth
			d.nullRate = pp.NullRate
		}
		switch {
		case n < 30:
			d.cause = "small-cycle"
			d.suggestion = "overhead-bound: batch with neighbouring cycles (asynchronous elaboration, §7)"
		case d.criticalPath > 10 && float64(d.criticalPath) > 0.2*float64(n):
			d.cause = "long-chain"
			d.suggestion = fmt.Sprintf("restructure %s as a constrained bilinear network (Fig 6-8)", d.production)
		default:
			d.cause = "tail-end"
			d.suggestion = "uneven task availability late in the cycle; fewer queues near quiescence (§6.2)"
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].cycleTasks > out[j].cycleTasks })
	return out
}

// diagnoseTable renders the diagnosis of the Eight-puzzle during-chunking
// run — the paper's own example of cycles with many tasks but low speedup.
func diagnoseTable(l *Lab) (*table, error) {
	t := newTable("Diagnostics (§7): low-speedup cycles, Eight-puzzle during chunking (11 processes, speedup < 5)",
		"Tasks", "Speedup", "Critical path", "Chain depth", "Null rate", "Failed pops", "Steals", "Cause", "Suggestion")
	c, err := l.eightPuzzle(duringChunk)
	if err != nil {
		return nil, err
	}
	diags := diagnose(c, 11, 5)
	const shown = 12
	for _, d := range diags[:min(shown, len(diags))] {
		t.add(count(d.cycleTasks), num("%.2f", d.speedup), count(d.criticalPath), count(d.chainDepth),
			num("%.0f%%", 100*d.nullRate), count(d.failedPops), count(d.steals), d.cause, d.suggestion)
	}
	if len(diags) > shown {
		t.add(fmt.Sprintf("(+%d more)", len(diags)-shown), "", "", "", "", "", "", "", "")
	}
	// The live runtime's own queue diagnostics for the whole capture.
	// FailedPops excludes quiescence-detection probes, counted separately.
	t.add("(live run)", "", "", "", "",
		fmt.Sprintf("%d", c.failedPops),
		fmt.Sprintf("%d", c.steals),
		"runtime totals",
		fmt.Sprintf("failed pops / steals observed by prun across all cycles (%d quiescence probes)", c.termProbes))
	st := &c.eng.NW.Stats
	t.add("(match filtering)", "", "", "", "", "", "",
		"runtime totals",
		fmt.Sprintf("null activations suppressed %d (unlink=%v); alpha dispatch %d hits / %d misses — see abl-unlink",
			st.NullSuppressed.Load(), c.eng.NW.Opts.Unlink, st.AlphaHits.Load(), st.AlphaMisses.Load()))
	if p := c.prof; p != nil {
		hottest := "-"
		if len(p.Productions) > 0 {
			h := p.Productions[0]
			hottest = fmt.Sprintf("hottest %s: chain %d, %.0f%% null, %.0f%% of modeled cost",
				h.Name, h.ChainDepth, 100*h.NullRate, 100*h.CostShare)
		}
		t.add("(match profile)", "", "", "", fmt.Sprintf("%.0f%%", 100*p.NullRate), "", "",
			"runtime totals",
			fmt.Sprintf("%d activations over %d nodes; %s", p.Totals.Acts, p.Nodes, hottest))
	}
	return t, nil
}
