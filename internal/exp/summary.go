package exp

import (
	"fmt"

	"soarpsme/internal/sim"
	"soarpsme/internal/stats"
)

// Summary builds the one-page reproduction scorecard: for every artifact
// of the paper's evaluation, the paper's headline number, the measured
// value from this run, and whether the qualitative shape held. The checks
// are computed live, so the scorecard cannot drift from the code.
func Summary(l *Lab) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Reproduction scorecard (shape targets; see EXPERIMENTS.md for discussion)",
		Headers: []string{"Artifact", "Paper headline", "Measured", "Shape"},
	}
	check := func(ok bool) string {
		if ok {
			return "holds"
		}
		return "DIVERGES"
	}

	// Table 5-1: chunks bigger than task productions; bytes/node in band.
	{
		c, err := l.cypress(duringChunk)
		if err != nil {
			return nil, err
		}
		taskCEs, chunkCEs := mean(c.taskProdCEs), mean(c.chunkCEs)
		t.AddRow("Table 5-1 (Cypress CEs)", "26 task / 51 chunk",
			fmt.Sprintf("%.0f task / %.0f chunk", taskCEs, chunkCEs),
			check(chunkCEs > taskCEs))
		per := c.bytesPer2In()
		t.AddRow("Table 5-1 (bytes/2-input node)", "219-304",
			fmt.Sprintf("%.0f", per), check(per >= 180 && per <= 350))
	}

	// Table 6-1: ~400 µs tasks.
	{
		c, err := l.eightPuzzle(noChunk)
		if err != nil {
			return nil, err
		}
		one := uniproc(c.traces)
		avg := float64(one.TotalWork) / float64(maxi(1, one.Tasks))
		t.AddRow("Table 6-1 (µs/task)", "400-438",
			fmt.Sprintf("%.0f", avg), check(avg > 250 && avg < 550))
	}

	// Figures 6-1/6-4: single-queue cap lifted by multiple queues.
	{
		c, err := l.strips(noChunk)
		if err != nil {
			return nil, err
		}
		s1 := sim.RunSpeedup(c.traces, 13, sim.SingleQueue, queueOp)
		s2 := sim.RunSpeedup(c.traces, 13, sim.MultiQueue, queueOp)
		t.AddRow("Fig 6-1 vs 6-4 (Strips @13)", "≈4.2 → ≈7",
			fmt.Sprintf("%.1f → %.1f", s1, s2), check(s2 > s1 && s1 < 6))
	}

	// Figure 6-2: Strips is the contended task.
	{
		epc, err := l.eightPuzzle(noChunk)
		if err != nil {
			return nil, err
		}
		stc, err := l.strips(noChunk)
		if err != nil {
			return nil, err
		}
		ep, st := epc.accessShares()[1], stc.accessShares()[1]
		t.AddRow("Fig 6-2 (Strips contention)", "Strips worst",
			fmt.Sprintf("1-access: EP %.0f%%, Strips %.0f%%", ep, st), check(st < ep))
	}

	// Figure 6-9: update phase parallelizes.
	{
		c, err := l.strips(duringChunk)
		if err != nil {
			return nil, err
		}
		sp := sim.RunSpeedup(c.updateTraces, 13, sim.MultiQueue, queueOp)
		t.AddRow("Fig 6-9 (update speedup @13)", "high",
			fmt.Sprintf("%.1f", sp), check(sp > 1.5))
	}

	// Figure 6-10: Eight-puzzle after chunking ≈ 10×.
	{
		c, err := l.eightPuzzle(afterChunk)
		if err != nil {
			return nil, err
		}
		sp := sim.RunSpeedup(c.traces, 13, sim.MultiQueue, queueOp)
		t.AddRow("Fig 6-10 (EP after-chunking @13)", "≈10",
			fmt.Sprintf("%.1f", sp), check(sp >= 8))
	}

	// Figures 6-11/12: histogram shift.
	{
		bc, err := l.eightPuzzle(noChunk)
		if err != nil {
			return nil, err
		}
		ac, err := l.eightPuzzle(afterChunk)
		if err != nil {
			return nil, err
		}
		b := bc.pctCyclesAtLeast(200)
		a := ac.pctCyclesAtLeast(200)
		t.AddRow("Fig 6-11/12 (cycles ≥200 tasks)", "3% → 30%+",
			fmt.Sprintf("%.0f%% → %.0f%%", b, a), check(a > b))
	}

	// Per-cycle speedup distribution (§6.2's variance point): the median
	// cycle parallelizes far worse than the best cycles, which is why the
	// whole-run speedup understates the burst parallelism.
	{
		c, err := l.eightPuzzle(duringChunk)
		if err != nil {
			return nil, err
		}
		h := stats.NewHistogram(10) // bins of 0.1x (speedup scaled by 100)
		for _, tr := range c.traces {
			if len(tr) < 5 {
				continue
			}
			h.Add(int(100 * sim.Speedup(tr, 11, sim.MultiQueue, queueOp)))
		}
		p50, p90, p99 := h.Percentiles()
		t.AddRow("§6.2 (EP per-cycle speedup @11)", "high variance",
			fmt.Sprintf("p50 %.1f / p90 %.1f / p99 %.1f", p50/100, p90/100, p99/100),
			check(h.N() > 0 && p90 > p50))
	}

	// §6.3: chunking increases total match work on the Eight-puzzle.
	{
		ncc, err := l.eightPuzzle(noChunk)
		if err != nil {
			return nil, err
		}
		acc, err := l.eightPuzzle(afterChunk)
		if err != nil {
			return nil, err
		}
		nc, ac := ncc.tasks, acc.tasks
		t.AddRow("§6.3 (EP match work growth)", "expensive chunks",
			fmt.Sprintf("%d → %d tasks", nc, ac), check(ac > nc))
	}

	// Fig 6-8: bilinear cuts the monitor chain.
	{
		tbl, err := Fig68(l)
		if err != nil {
			return nil, err
		}
		var lin, bil int
		fmt.Sscanf(tbl.Rows[0][1], "%d", &lin)
		fmt.Sscanf(tbl.Rows[1][1], "%d", &bil)
		t.AddRow("Fig 6-8 (monitor chain)", "43 → 15 CEs",
			fmt.Sprintf("%d → %d nodes", lin, bil), check(bil < lin))
	}
	return t, nil
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
