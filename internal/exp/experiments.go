package exp

import (
	"fmt"
	"sort"
	"strings"

	"soarpsme/internal/chunk"
	"soarpsme/internal/engine"
	"soarpsme/internal/ops5"
	"soarpsme/internal/prun"
	"soarpsme/internal/rete"
	"soarpsme/internal/sim"
	"soarpsme/internal/stats"
	"soarpsme/internal/tasks/strips"
	"soarpsme/internal/value"
)

// processCounts is the paper's sweep of match processes.
var processCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}

func mean(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// Table51 reproduces Table 5-1: CEs per task production vs per chunk,
// code bytes per chunk and per two-input node.
func Table51(l *Lab) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Table 5-1: Number of CEs per chunk (during-chunking runs)",
		Headers: []string{"Task", "Avg CEs (task Ps)", "Avg CEs (chunks)", "Avg bytes/chunk", "Avg bytes/2-input node"},
	}
	caps, err := l.workloads(duringChunk)
	if err != nil {
		return nil, err
	}
	for i, c := range caps {
		n2in := 0
		for _, n := range c.chunkNew2In {
			n2in += n
		}
		bytes := 0
		for _, b := range c.chunkBytes {
			bytes += b
		}
		per2in := 0.0
		if n2in > 0 {
			per2in = float64(bytes) / float64(n2in)
		}
		perChunk := 0.0
		if len(c.chunkBytes) > 0 {
			perChunk = float64(bytes) / float64(len(c.chunkBytes))
		}
		t.AddRow(taskNames[i],
			fmt.Sprintf("%.0f", mean(c.taskProdCEs)),
			fmt.Sprintf("%.0f", mean(c.chunkCEs)),
			fmt.Sprintf("%.0f", perChunk),
			fmt.Sprintf("%.0f", per2in))
	}
	return t, nil
}

// nodeBytes is the size of the code PSM-E's generator (§5.1) emits for one
// new node: the node's instruction counts times nominal NS32032 encodings.
// A P node locks its line, inserts, unlocks, updates the conflict set and
// returns: 56 bytes. A two-input node hashes each equality and pair-join
// binding (10 bytes each), locks and inserts (22), and open-codes a left and
// a right activation body. Each body scans the opposite memory (18), loads,
// compares and branches on every test (36 each), adjusts a match count (14,
// not and NCC nodes) or extends the token (20), and dispatches successors
// through the jumptable (24). Unlock and return close the node (12).
func nodeBytes(n *rete.BetaNode) int {
	if n.Kind == rete.KindP {
		return 56
	}
	eq := 0
	for _, t := range n.Tests {
		if t.Pred == value.PredEq {
			eq++
		}
	}
	k := 20
	switch n.Kind {
	case rete.KindNot, rete.KindNCC, rete.KindNCCPartner:
		k = 14
	}
	pairs := len(n.BBTests)
	return 118 + 10*(eq+pairs) + 72*(len(n.Tests)+pairs) + 2*k
}

// jumpBytes is the indirect jump through the jumptable that every successor
// dispatch pays; over a node's average size it is the jumptable's match-time
// overhead, which the paper measured at 1-3% (§5.1).
const jumpBytes = 8

// codeSize returns the bytes of code a production addition emitted and how
// many of its new nodes are two-input nodes.
func codeSize(info *rete.AddInfo) (bytes, twoInput int) {
	for _, n := range info.NewBeta {
		bytes += nodeBytes(n)
		if n.Kind != rete.KindP {
			twoInput++
		}
	}
	return bytes, twoInput
}

// compileModelMicros models chunk compilation time on the paper's 0.75-MIPS
// machine: code emission proportional to emitted bytes, plus the sharing
// search over the existing structure, plus per-node integration.
func compileModelMicros(bytes, newNodes, sharedNodes int) int64 {
	const (
		perByte   = 110 // µs per emitted byte (machine-code generation)
		perNode   = 900 // µs per node built and spliced
		perSearch = 450 // µs per shared node found (tree search)
	)
	return int64(bytes)*perByte + int64(newNodes)*perNode + int64(sharedNodes)*perSearch
}

// Table52 reproduces Table 5-2: time to compile chunks at run time, with
// two-input-node sharing on and off. The chunks of the during-chunking
// runs are recompiled into fresh networks under both settings.
func Table52(l *Lab) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Table 5-2: Time for compiling chunks at run-time (modeled seconds on the 0.75-MIPS target)",
		Headers: []string{"Task", "Chunks added", "Time shared (s)", "Time unshared (s)"},
	}
	caps, err := l.workloads(duringChunk)
	if err != nil {
		return nil, err
	}
	for i, c := range caps {
		var chunkASTs []*ops5.Production
		for _, add := range c.eng.Additions {
			chunkASTs = append(chunkASTs, add.Prod.AST)
		}
		shared, err := recompileChunks(c, chunkASTs, true)
		if err != nil {
			return nil, err
		}
		unshared, err := recompileChunks(c, chunkASTs, false)
		if err != nil {
			return nil, err
		}
		t.AddRow(taskNames[i],
			fmt.Sprintf("%d", len(chunkASTs)),
			fmt.Sprintf("%.1f", float64(shared)/1e6),
			fmt.Sprintf("%.1f", float64(unshared)/1e6))
	}
	return t, nil
}

// recompileChunks rebuilds the task network and re-adds the chunks under
// the given sharing setting, returning the modeled compile time.
func recompileChunks(c *capture, chunks []*ops5.Production, share bool) (int64, error) {
	opts := rete.DefaultOptions()
	opts.ShareBeta = share
	nw := rete.NewNetwork(c.eng.Tab, c.eng.Reg, nil, opts)
	for _, p := range c.eng.NW.Productions() {
		if isChunkName(p.Name) {
			continue
		}
		if _, _, err := nw.AddProduction(p.AST); err != nil {
			return 0, fmt.Errorf("exp: recompile %s: %w", p.Name, err)
		}
	}
	var total int64
	for _, ast := range chunks {
		clone := *ast
		clone.Name = ast.Name + "-re"
		_, info, err := nw.AddProduction(&clone)
		if err != nil {
			return 0, fmt.Errorf("exp: recompile %s: %w", clone.Name, err)
		}
		bytes, _ := codeSize(info)
		total += compileModelMicros(bytes, len(info.NewBeta), info.SharedTwoInput)
	}
	return total, nil
}

func isChunkName(n string) bool {
	return strings.HasPrefix(n, chunk.Prefix) || strings.HasPrefix(n, "cy-chunk-")
}

// Table61 reproduces Table 6-1: the granularity of tasks — uniprocessor
// match time, total node activations, mean time per activation.
func Table61(l *Lab) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Table 6-1: The granularity of the tasks (without chunking; simulated NS32032 time)",
		Headers: []string{"Task", "Uniproc. time (s)", "Total tasks executed", "Avg time per task (us)"},
	}
	caps, err := l.workloads(noChunk)
	if err != nil {
		return nil, err
	}
	for i, c := range caps {
		one := sim.MultiCycle(c.traces, sim.Config{Processes: 1, QueueOp: queueOp})
		avg := int64(0)
		if one.Tasks > 0 {
			avg = one.TotalWork / int64(one.Tasks)
		}
		t.AddRow(taskNames[i],
			fmt.Sprintf("%.1f", float64(one.Makespan)/1e6),
			fmt.Sprintf("%d", one.Tasks),
			fmt.Sprintf("%d", avg))
	}
	return t, nil
}

// speedupFigure builds a speedup-vs-processes figure over the given traces.
func speedupFigure(title string, caps []*capture, traces func(*capture) [][]prun.TaskRec, pol sim.Policy) *stats.Figure {
	f := &stats.Figure{Title: title, XLabel: "match processes", YLabel: "speedup"}
	for i, c := range caps {
		one := sim.MultiCycle(traces(c), sim.Config{Processes: 1, QueueOp: queueOp})
		name := fmt.Sprintf("%s (uniproc %.1fs)", taskNames[i], float64(one.Makespan)/1e6)
		s := f.AddSeries(name)
		for _, p := range processCounts {
			s.Add(float64(p), sim.RunSpeedup(traces(c), p, pol, queueOp))
		}
	}
	return f
}

func normalTraces(c *capture) [][]prun.TaskRec { return c.traces }
func updateTraces(c *capture) [][]prun.TaskRec { return c.updateTraces }

// Fig61 reproduces Figure 6-1: speedups without chunking, single queue.
func Fig61(l *Lab) (*stats.Figure, error) {
	caps, err := l.workloads(noChunk)
	if err != nil {
		return nil, err
	}
	return speedupFigure("Figure 6-1: Speedups without chunking, single task queue",
		caps, normalTraces, sim.SingleQueue), nil
}

// Fig64 reproduces Figure 6-4: speedups without chunking, multiple queues.
func Fig64(l *Lab) (*stats.Figure, error) {
	caps, err := l.workloads(noChunk)
	if err != nil {
		return nil, err
	}
	return speedupFigure("Figure 6-4: Speedups without chunking, multiple task queues",
		caps, normalTraces, sim.MultiQueue), nil
}

// Fig62 reproduces Figure 6-2: contention for the hash buckets — the
// distribution of left-token accesses per bucket line per cycle.
func Fig62(l *Lab) (*stats.Figure, error) {
	f := &stats.Figure{
		Title:  "Figure 6-2: Contention for the hash buckets",
		XLabel: "accesses per bucket per cycle",
		YLabel: "percent of left tokens",
	}
	caps, err := l.workloads(noChunk)
	if err != nil {
		return nil, err
	}
	for i, c := range caps {
		s := f.AddSeries(taskNames[i])
		// Weight each bucket-cycle count by the tokens it covers.
		byCount := map[int]int{}
		total := 0
		for _, n := range c.bucketAccesses {
			byCount[n] += n
			total += n
		}
		keys := make([]int, 0, len(byCount))
		for k := range byCount {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			if k > 16 {
				break
			}
			s.Add(float64(k), 100*float64(byCount[k])/float64(total))
		}
	}
	return f, nil
}

// Fig63 reproduces Figure 6-3: task-queue contention (spins per task) as
// the number of processes grows, single shared queue.
func Fig63(l *Lab) (*stats.Figure, error) {
	f := &stats.Figure{
		Title:  "Figure 6-3: Task-queue contention with increasing number of processes (single queue)",
		XLabel: "match processes",
		YLabel: "spins/task (queue-op units)",
	}
	caps, err := l.workloads(noChunk)
	if err != nil {
		return nil, err
	}
	for i, c := range caps {
		s := f.AddSeries(taskNames[i])
		for _, p := range processCounts {
			if p < 3 {
				continue
			}
			r := sim.MultiCycle(c.traces, sim.Config{Processes: p, Policy: sim.SingleQueue, QueueOp: queueOp})
			s.Add(float64(p), r.SpinsPerTask(queueOp))
		}
	}
	return f, nil
}

// Fig65 reproduces Figure 6-5: per-cycle speedup as a function of
// tasks/cycle for the Eight-puzzle at 11 match processes.
func Fig65(l *Lab) (*stats.Figure, error) {
	f := &stats.Figure{
		Title:  "Figure 6-5: Eight-puzzle: per-cycle speedup vs tasks/cycle (11 processes, multiple queues)",
		XLabel: "tasks/cycle (bin)",
		YLabel: "mean speedup",
	}
	c, err := l.eightPuzzle(duringChunk)
	if err != nil {
		return nil, err
	}
	bins := map[int]*stats.Summary{}
	for _, tr := range c.traces {
		if len(tr) == 0 {
			continue
		}
		sp := sim.Speedup(tr, 11, sim.MultiQueue, queueOp)
		bin := binFor(len(tr))
		if bins[bin] == nil {
			bins[bin] = &stats.Summary{}
		}
		bins[bin].Add(sp)
	}
	s := f.AddSeries("Eight-puzzle cycles")
	keys := make([]int, 0, len(bins))
	for k := range bins {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		s.Add(float64(k), bins[k].Mean())
	}
	return f, nil
}

// binFor buckets cycle sizes like the paper's scatter (finer at the left).
func binFor(n int) int {
	switch {
	case n < 100:
		return n / 10 * 10
	case n < 400:
		return n / 50 * 50
	default:
		return n / 200 * 200
	}
}

// Fig66 reproduces Figure 6-6: tasks in the system over time for a large
// cycle with low speedup (the long-chain tail), 11 processes.
func Fig66(l *Lab) (*stats.Figure, error) {
	f := &stats.Figure{
		Title:  "Figure 6-6: Eight-puzzle: tasks in system over time (one ~300-task cycle, 11 processes)",
		XLabel: "time (100us units)",
		YLabel: "tasks in system",
	}
	c, err := l.eightPuzzle(duringChunk)
	if err != nil {
		return nil, err
	}
	// Pick the largest cycle in the 250..600 range (like the paper's
	// ~300-task example), falling back to the largest overall.
	var pick []prun.TaskRec
	for _, tr := range c.traces {
		if len(tr) >= 250 && len(tr) <= 600 && len(tr) > len(pick) {
			pick = tr
		}
	}
	if pick == nil {
		for _, tr := range c.traces {
			if len(tr) > len(pick) {
				pick = tr
			}
		}
	}
	r := sim.Simulate(pick, sim.Config{Processes: 11, Policy: sim.MultiQueue, QueueOp: queueOp, MaxSamples: 100000})
	s := f.AddSeries(fmt.Sprintf("cycle with %d tasks", len(pick)))
	// Downsample to ~120 points, keeping the maximum within each window
	// (the count fluctuates as tasks complete before their children are
	// pushed).
	if len(r.Samples) > 0 {
		end := r.Samples[len(r.Samples)-1].T
		step := end/120 + 1
		j, cur := 0, 0
		for t := int64(0); t <= end; t += step {
			for j < len(r.Samples) && r.Samples[j].T <= t {
				cur = r.Samples[j].N
				j++
			}
			s.Add(float64(t/100), float64(cur))
		}
	}
	return f, nil
}

// Fig67 renders the long-chain productions of Figure 6-7: the
// Monitor-Strips-State task production and the longest learned chunk.
func Fig67(l *Lab) (string, error) {
	var sb strings.Builder
	sb.WriteString("Figure 6-7: Long chain productions\n\n")
	c, err := l.strips(duringChunk)
	if err != nil {
		return "", err
	}
	for _, p := range c.eng.NW.Productions() {
		if p.Name == "st*monitor-strips-state" {
			sb.WriteString("; The Strips state-monitor production (task production):\n")
			sb.WriteString(ops5.Format(p.AST, c.eng.Tab))
			break
		}
	}
	var longest *rete.Production
	for _, p := range c.eng.NW.Productions() {
		if isChunkName(p.Name) && (longest == nil || countCEs(p.AST) > countCEs(longest.AST)) {
			longest = p
		}
	}
	if longest != nil {
		fmt.Fprintf(&sb, "\n; The longest learned chunk (%d CEs):\n", countCEs(longest.AST))
		sb.WriteString(ops5.Format(longest.AST, c.eng.Tab))
	}
	return sb.String(), nil
}

// Fig68 reproduces Figure 6-8: the constrained bilinear network — chain
// length and critical-path reduction on the Strips task.
func Fig68(l *Lab) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 6-8: Constrained bilinear network organization (Strips, without chunking)",
		Headers: []string{"Organization", "Max network chain (nodes)", "Critical path (activations)", "Speedup @11 procs", "Tasks"},
	}
	for _, org := range []rete.Organization{rete.Linear, rete.Bilinear} {
		lab := NewLab()
		lab.opts.Organization = org
		// The context prefix must cover the CEs that bind the linking
		// variables (goal, impasse item, state) — the paper's "matching in
		// all of the CEs is constrained by the matches for the first few
		// CEs".
		lab.opts.ContextCEs = 3
		lab.opts.GroupCEs = 3
		c, err := lab.soarTask("strips-bilinear", strips.Default(), noChunk)
		if err != nil {
			return nil, err
		}
		depth := prodChainDepth(c.eng, "st*monitor-strips-state")
		crit := 0
		for _, tr := range c.traces {
			if d := criticalPath(tr); d > crit {
				crit = d
			}
		}
		name := "linear"
		if org == rete.Bilinear {
			name = "bilinear (ctx=3, group=3)"
		}
		t.AddRow(name,
			fmt.Sprintf("%d", depth),
			fmt.Sprintf("%d", crit),
			fmt.Sprintf("%.2f", sim.RunSpeedup(c.traces, 11, sim.MultiQueue, queueOp)),
			fmt.Sprintf("%d", c.tasks))
	}
	return t, nil
}

// prodChainDepth returns the longest node chain from the top to the named
// production's P node, the P node included (the paper reports the monitor
// production's chain shrinking from 43 to 15 CEs).
func prodChainDepth(e *engine.Engine, name string) int {
	p := e.NW.Lookup(name)
	if p == nil {
		return 0
	}
	return p.ChainDepth() + 1
}

// criticalPath returns the longest dependent-activation chain in a trace.
func criticalPath(tr []prun.TaskRec) int {
	depth := make(map[int64]int, len(tr))
	max := 0
	for _, r := range tr { // traces are in sequential completion order
		d := 1
		if p, ok := depth[r.Parent]; ok {
			d = p + 1
		}
		depth[r.Seq] = d
		if d > max {
			max = d
		}
	}
	return max
}

// Fig69 reproduces Figure 6-9: speedups in the update phase (run-time
// addition state update), multiple queues.
func Fig69(l *Lab) (*stats.Figure, error) {
	caps, err := l.workloads(duringChunk)
	if err != nil {
		return nil, err
	}
	return speedupFigure("Figure 6-9: Speedups in the update phase, multiple task queues",
		caps, updateTraces, sim.MultiQueue), nil
}

// Fig610 reproduces Figure 6-10: speedups after chunking, multiple queues.
func Fig610(l *Lab) (*stats.Figure, error) {
	caps, err := l.workloads(afterChunk)
	if err != nil {
		return nil, err
	}
	return speedupFigure("Figure 6-10: Speedups after chunking, multiple task queues",
		caps, normalTraces, sim.MultiQueue), nil
}

// tasksPerCycleHist builds the paper's tasks/cycle histograms.
func tasksPerCycleHist(title string, c *capture) *stats.Figure {
	f := &stats.Figure{Title: title, XLabel: "tasks/cycle (bin of 25)", YLabel: "percent of cycles"}
	h := stats.NewHistogram(25)
	for _, n := range c.tasksPerCycle {
		h.Add(n)
	}
	s := f.AddSeries("cycles")
	for _, b := range h.Bins() {
		s.Add(float64(b.Lo), b.Percent)
	}
	return f
}

// Fig611 reproduces Figure 6-11: tasks/cycle distribution, Eight-puzzle
// without chunking.
func Fig611(l *Lab) (*stats.Figure, error) {
	c, err := l.eightPuzzle(noChunk)
	if err != nil {
		return nil, err
	}
	return tasksPerCycleHist("Figure 6-11: Eight-puzzle without chunking: tasks/cycle vs percent of cycles", c), nil
}

// Fig612 reproduces Figure 6-12: tasks/cycle distribution, Eight-puzzle
// after chunking.
func Fig612(l *Lab) (*stats.Figure, error) {
	c, err := l.eightPuzzle(afterChunk)
	if err != nil {
		return nil, err
	}
	return tasksPerCycleHist("Figure 6-12: Eight-puzzle after chunking: tasks/cycle vs percent of cycles", c), nil
}

// Extras summarizes measurements the paper reports in prose: jumptable
// overhead (§5.1), sharing statistics, and the chunking effect on run
// totals (§6.3).
func Extras(l *Lab) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Prose measurements (sections 5.1, 6.3)",
		Headers: []string{"Task", "Shared 2-in nodes/chunk", "Jumptable overhead", "Tasks no-chunk", "Tasks after-chunk", "%cycles >=1000 tasks (after)"},
	}
	during, err := l.workloads(duringChunk)
	if err != nil {
		return nil, err
	}
	noChunk, err := l.workloads(noChunk)
	if err != nil {
		return nil, err
	}
	afterChunk, err := l.workloads(afterChunk)
	if err != nil {
		return nil, err
	}
	for i := range taskNames {
		d := during[i]
		nc := noChunk[i]
		ac := afterChunk[i]
		sharedPer := 0.0
		if len(d.chunkCEs) > 0 {
			sharedPer = float64(d.sharedTwoInput) / float64(len(d.chunkCEs))
		}
		bytes, n2in := 0, 0
		for _, b := range d.chunkBytes {
			bytes += b
		}
		for _, n := range d.chunkNew2In {
			n2in += n
		}
		overhead := 0.0
		if n2in > 0 {
			overhead = jumpBytes / (float64(bytes) / float64(n2in))
		}
		h := stats.NewHistogram(100)
		for _, n := range ac.tasksPerCycle {
			h.Add(n)
		}
		t.AddRow(taskNames[i],
			fmt.Sprintf("%.1f", sharedPer),
			fmt.Sprintf("%.1f%%", 100*overhead),
			fmt.Sprintf("%d", nc.tasks),
			fmt.Sprintf("%d", ac.tasks),
			fmt.Sprintf("%.0f%%", h.PercentAtOrAbove(1000)))
	}
	return t, nil
}
