package rete

import (
	"math/bits"
	"sync"
)

// ProfCell is the per-node attribution record of the match profiler: every
// counter a task execution contributes to lives in the cell indexed by the
// task's destination node, so cost can later be rolled up chain-by-chain
// into per-production totals (the paper's per-production task counts, live).
type ProfCell struct {
	// Acts counts executed activations of the node (scheduled tasks; the
	// unlink fast path's inline executions land in NetStats.NullSuppressed,
	// not here, mirroring the Activations counter).
	Acts int64
	// Emitted counts tokens the node's activations emitted.
	Emitted int64
	// Nulls counts activations that emitted nothing — the null-activation
	// measure of §2.2, attributed to its node.
	Nulls int64
	// Cost sums the modeled task cost (simulated µs, the Table 6-1 scale).
	Cost int64
	// SampleNS sums the wall-clock time of the node's timed tasks; Samples
	// counts them, so SampleNS/Samples estimates the node's real mean task
	// latency without a clock read on every task.
	SampleNS int64
	Samples  int64
}

// Histogram geometry. Depth buckets are linear (chain depth 1..DepthBuckets,
// last bucket = "deeper"); cost buckets are log2 of the modeled µs cost —
// the paper's task-granularity axis (Fig 6-5 bins task sizes the same way).
const (
	DepthBuckets = 32
	CostBuckets  = 20
)

// depthBucket maps a chain depth (1-based) to its histogram bucket.
func depthBucket(d int32) int {
	if d < 1 {
		d = 1
	}
	if d > DepthBuckets {
		d = DepthBuckets
	}
	return int(d - 1)
}

// costBucket maps a modeled task cost to its log2 histogram bucket.
func costBucket(cost int64) int {
	if cost < 1 {
		cost = 1
	}
	b := bits.Len64(uint64(cost)) - 1
	if b >= CostBuckets {
		b = CostBuckets - 1
	}
	return b
}

// Prof is the match profiler state attached to a Network: per-node
// attribution cells plus global chain-depth and task-granularity
// histograms. It is storage, one Fold and a snapshot — nothing on the
// per-task path writes here. The runtime folds each cycle's task records in
// once its workers have exited, under one lock per cycle; the same lock lets
// /debug/match scrapes read while cycles run and chunking adds nodes.
type Prof struct {
	mu         sync.Mutex
	cells      []ProfCell
	depthH     [DepthBuckets]int64
	costH      [CostBuckets]int64
	sampleMask uint64 // time 1 task in (mask+1)
}

// NewProf returns a profiler sized for n nodes, wall-sampling one task in
// sampleEvery (rounded down to a power of two; 0 = 64).
func NewProf(n, sampleEvery int) *Prof {
	if sampleEvery <= 0 {
		sampleEvery = 64
	}
	// Round down to a power of two so the runtime masks instead of mods.
	mask := uint64(1)<<uint(bits.Len(uint(sampleEvery))-1) - 1
	return &Prof{sampleMask: mask, cells: make([]ProfCell, n)}
}

// grow ensures cells exist for node IDs below n.
func (p *Prof) grow(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > len(p.cells) {
		p.cells = append(p.cells, make([]ProfCell, max(n, 2*len(p.cells))-len(p.cells))...)
	}
}

// SampleMask returns the wall-clock sampling mask: when only the profiler
// is attached, a worker times the tasks whose per-worker ordinal (kept
// across cycles) ANDs to zero.
func (p *Prof) SampleMask() uint64 { return p.sampleMask }

// Fold attributes one cycle's task records — each to its node's cell, with
// a wall-clock sample for each timed record, and to the depth and
// granularity histograms — and returns the cycle's longest dependent chain.
func (p *Prof) Fold(recs []TaskRec) (maxDepth int32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range recs {
		r := &recs[i]
		p.depthH[depthBucket(r.Depth)]++
		p.costH[costBucket(r.Cost)]++
		if r.Depth > maxDepth {
			maxDepth = r.Depth
		}
		if int(r.Node) >= len(p.cells) {
			continue
		}
		c := &p.cells[r.Node]
		c.Acts++
		c.Cost += r.Cost
		if r.Emitted == 0 {
			c.Nulls++
		} else {
			c.Emitted += int64(r.Emitted)
		}
		if r.Start != 0 {
			c.SampleNS += r.Dur
			c.Samples++
		}
	}
	return maxDepth
}

// Snapshot copies the per-node attribution counters (index = NodeID), the
// chain-depth histogram (bucket i = depth i+1; the last bucket collects
// deeper chains) and the task-granularity histogram (bucket i = modeled
// cost in [2^i, 2^(i+1)) µs), consistent as of one cycle boundary.
func (p *Prof) Snapshot() (cells []ProfCell, depth [DepthBuckets]int64, cost [CostBuckets]int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]ProfCell(nil), p.cells...), p.depthH, p.costH
}
