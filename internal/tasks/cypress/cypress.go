// Package cypress is the documented substitution for Cypress-Soar, the
// 196-production algorithm-design system of [18] whose sources are lost.
// It synthesizes a production system and workload matched to the paper's
// published statistics (Tables 5-1/5-2, 6-1): 196 task productions
// averaging 26 condition elements with heavily shared prefixes, very long
// dependent join chains, 26 run-time-added chunks averaging 51 CEs, and a
// working-memory driver that reproduces the relative match volume of the
// quick-sort derivation run (roughly 5× the Eight-Puzzle task count).
//
// The model: algorithm derivations are chains of design steps
// (step ^id n ^prev m ^op o). Each production recognizes one derivation
// sequence — a path through a 6-ary prefix tree, so productions share
// network prefixes exactly as Cypress's related design rules did. The
// driver grows derivation chains step by step (long dependent activation
// chains), abandons some (deletions), and injects decoy steps (null match
// activity).
package cypress

import (
	"fmt"
	"strconv"

	"soarpsme/internal/engine"
	"soarpsme/internal/ops5"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// Params sizes the generated system. Zero fields take the paper-matched
// defaults.
type Params struct {
	Productions int // task productions (paper: 196)
	AvgCEs      int // CEs per production (paper: 26)
	Chunks      int // run-time chunks (paper: 26)
	ChunkCEs    int // CEs per chunk (paper: 51)
	Alphabet    int // design-step operator alphabet
	Cycles      int // driver cycles
	Seed        uint64
}

// DefaultParams returns the paper-matched configuration.
func DefaultParams() Params {
	return Params{Productions: 196, AvgCEs: 26, Chunks: 26, ChunkCEs: 51, Alphabet: 8, Cycles: 1300, Seed: 42}
}

func (p *Params) fill() {
	d := DefaultParams()
	if p.Productions == 0 {
		p.Productions = d.Productions
	}
	if p.AvgCEs == 0 {
		p.AvgCEs = d.AvgCEs
	}
	if p.Chunks == 0 {
		p.Chunks = d.Chunks
	}
	if p.ChunkCEs == 0 {
		p.ChunkCEs = d.ChunkCEs
	}
	if p.Alphabet == 0 {
		p.Alphabet = d.Alphabet
	}
	if p.Cycles == 0 {
		p.Cycles = d.Cycles
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
}

// System is a generated Cypress-like workload.
type System struct {
	Params Params
	// Source is the task production set (load before the run).
	Source string
	// ChunkSrcs are the productions added at run time, in order.
	ChunkSrcs []string
	// seqs[i] is production i's operator sequence (indices into alphabet).
	seqs [][]int
	// chunkSeqs[i] is chunk i's operator sequence.
	chunkSeqs [][]int
}

type lcg struct{ s uint64 }

func (r *lcg) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 11
}

func (r *lcg) intn(n int) int { return int(r.next() % uint64(n)) }

// Generate builds the production system.
func Generate(p Params) *System {
	p.fill()
	rng := &lcg{s: p.Seed*2654435761 + 1}
	sys := &System{Params: p}

	// Operator sequences from a prefix tree: each production copies a
	// random prefix of an earlier production (sharing) and extends it.
	mkSeq := func(n int, prior [][]int) []int {
		seq := make([]int, 0, n)
		if len(prior) > 0 && rng.intn(100) < 85 {
			src := prior[rng.intn(len(prior))]
			k := len(src)/2 + rng.intn(len(src)/2)
			seq = append(seq, src[:k]...)
		}
		for len(seq) < n {
			seq = append(seq, rng.intn(p.Alphabet))
		}
		return seq[:n]
	}
	for i := 0; i < p.Productions; i++ {
		// CE counts vary ±25% around the average.
		n := p.AvgCEs - p.AvgCEs/4 + rng.intn(p.AvgCEs/2+1)
		sys.seqs = append(sys.seqs, mkSeq(n, sys.seqs))
	}
	for i := 0; i < p.Chunks; i++ {
		n := p.ChunkCEs - p.ChunkCEs/8 + rng.intn(p.ChunkCEs/4+1)
		// Chunks extend existing task-production sequences (chunks arise
		// from the existing rules, §5.1).
		base := sys.seqs[rng.intn(len(sys.seqs))]
		seq := append(append([]int{}, base...), mkSeq(n, nil)...)
		sys.chunkSeqs = append(sys.chunkSeqs, seq[:n])
	}

	src := []byte("(literalize step id prev op depth)\n(literalize derived p last)\n")
	for i, seq := range sys.seqs {
		src = appendProd(src, "cy-"+strconv.Itoa(i+1), seq)
	}
	sys.Source = string(src)
	// Source holds its own copy, so each chunk renders in src's buffer.
	for i, seq := range sys.chunkSeqs {
		sys.ChunkSrcs = append(sys.ChunkSrcs, string(appendProd(src[:0], "cy-chunk-"+strconv.Itoa(i+1), seq)))
	}
	return sys
}

// appendProd appends one derivation-recognizer production to b.
func appendProd(b []byte, name string, seq []int) []byte {
	b = append(append(append(b, "(p "...), name...), '\n')
	for i, op := range seq {
		if i == 0 {
			b = append(b, "  (step ^id <s1> ^prev root ^op a"...)
			b = strconv.AppendInt(b, int64(op), 10)
			b = append(b, " ^depth 1)\n"...)
			continue
		}
		b = append(b, "  (step ^id <s"...)
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, "> ^prev <s"...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, "> ^op a"...)
		b = strconv.AppendInt(b, int64(op), 10)
		b = append(b, " ^depth "...)
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, ")\n"...)
	}
	b = append(append(append(b, "  -->\n  (make derived ^p "...), name...), " ^last <s"...)
	b = strconv.AppendInt(b, int64(len(seq)), 10)
	return append(b, ">))\n"...)
}

// Driver produces the run's working-memory change batches. Each batch is
// one "decision cycle" worth of wme changes; the engine matches each batch
// to quiescence. ChunkAt maps batch indices to the chunk (index) added
// when that batch completes; Step applies both.
type Driver struct {
	sys     *System
	rng     *lcg
	tab     *value.Table
	mem     *wme.Memory
	clsStep value.Sym
	root    value.Sym
	nextID  int

	// live chains: each is the list of step wmes from root.
	chains [][]*wme.WME
	// target sequence being followed per chain (production index).
	targets []int
	// ChunkAt[i] is the batch index after which chunk i is added.
	ChunkAt []int
}

// NewDriver prepares a driver. The memory must be the engine's WM (wmes
// are created through it so time tags stay coherent).
func NewDriver(sys *System, tab *value.Table, mem *wme.Memory) *Driver {
	d := &Driver{
		sys:     sys,
		rng:     &lcg{s: sys.Params.Seed*97 + 13},
		tab:     tab,
		mem:     mem,
		clsStep: tab.Intern("step"),
		root:    tab.Intern("root"),
	}
	// Spread chunk additions over the second half of the run, once working
	// memory has grown.
	for i := 0; i < sys.Params.Chunks; i++ {
		at := sys.Params.Cycles/2 + i*(sys.Params.Cycles/2-10)/maxInt(1, sys.Params.Chunks)
		d.ChunkAt = append(d.ChunkAt, at)
	}
	return d
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Batch returns the wme deltas of one driver cycle.
func (d *Driver) Batch() []wme.Delta {
	var deltas []wme.Delta
	mkStep := func(prev value.Sym, op, depth int) (*wme.WME, value.Sym) {
		d.nextID++
		id := d.tab.Intern(fmt.Sprintf("n%d", d.nextID))
		w := d.mem.Make(d.clsStep, []value.Value{
			value.SymVal(id), value.SymVal(prev), d.tab.SymV(fmt.Sprintf("a%d", op)),
			value.IntVal(int64(depth)),
		})
		return w, id
	}

	// Start a fresh derivation chain every few cycles.
	if len(d.chains) < 4 || d.rng.intn(100) < 20 {
		t := d.rng.intn(len(d.sys.seqs))
		w, _ := mkStep(d.root, d.sys.seqs[t][0], 1)
		d.chains = append(d.chains, []*wme.WME{w})
		d.targets = append(d.targets, t)
		deltas = append(deltas, wme.Delta{Op: wme.Add, WME: w})
	}
	// Grow a few chains, mostly following their target production's
	// sequence (deep dependent activations), sometimes diverging (null
	// activity), occasionally branching (combinatorics).
	for g := 0; g < 3 && len(d.chains) > 0; g++ {
		ci := d.rng.intn(len(d.chains))
		chain := d.chains[ci]
		seq := d.sys.seqs[d.targets[ci]]
		depth := len(chain)
		if depth >= len(seq) {
			continue
		}
		op := seq[depth]
		if d.rng.intn(100) < 15 {
			op = d.rng.intn(d.sys.Params.Alphabet) // decoy
		}
		prevID := chain[len(chain)-1].Field(0).Sym
		w, _ := mkStep(prevID, op, depth+1)
		d.chains[ci] = append(chain, w)
		deltas = append(deltas, wme.Delta{Op: wme.Add, WME: w})
	}
	// Abandon an old chain now and then: deletions ripple down the chain.
	if len(d.chains) > 14 && d.rng.intn(100) < 40 {
		ci := d.rng.intn(len(d.chains))
		for _, w := range d.chains[ci] {
			deltas = append(deltas, wme.Delta{Op: wme.Remove, WME: w})
		}
		d.chains[ci] = d.chains[len(d.chains)-1]
		d.targets[ci] = d.targets[len(d.targets)-1]
		d.chains = d.chains[:len(d.chains)-1]
		d.targets = d.targets[:len(d.targets)-1]
	}
	return deltas
}

// Step runs driver cycle number cycle on e: it matches the batch and then,
// with chunking on, adds the chunks scheduled after it. *next is the first
// chunk neither added nor skipped. A chunk whose cycle passed while chunking
// was off is skipped, never added late, and every later one still fires.
// Step reports how many chunks it added.
func (d *Driver) Step(e *engine.Engine, cycle int, next *int, chunking bool) (int, error) {
	e.ApplyAndMatch(d.Batch())
	if !chunking {
		return 0, nil
	}
	added := 0
	for ; *next < len(d.ChunkAt) && d.ChunkAt[*next] <= cycle; *next++ {
		if d.ChunkAt[*next] < cycle {
			continue
		}
		ast, err := d.sys.ParseChunk(*next, e.Tab)
		if err == nil {
			_, err = e.AddProductionRuntime(ast)
		}
		if err != nil {
			return added, fmt.Errorf("cypress: chunk %d: %w", *next, err)
		}
		added++
	}
	return added, nil
}

// ParseChunk parses chunk i's production for run-time addition.
func (s *System) ParseChunk(i int, tab *value.Table) (*ops5.Production, error) {
	return ops5.ParseProduction(s.ChunkSrcs[i], tab)
}

// DriverState is the portable state of a Driver mid-run. Chain wmes are
// recorded by ID: every chain step is live in working memory (chains are
// removed only whole, when abandoned), so a restored memory resolves them
// by identity.
type DriverState struct {
	RNG     uint64     `json:"rng"`
	NextID  int        `json:"nextId"`
	Targets []int      `json:"targets"`
	Chains  [][]uint64 `json:"chains"`
}

// State exports the driver for a snapshot.
func (d *Driver) State() *DriverState {
	st := &DriverState{RNG: d.rng.s, NextID: d.nextID, Targets: append([]int{}, d.targets...)}
	st.Chains = make([][]uint64, len(d.chains))
	for i, chain := range d.chains {
		ids := make([]uint64, len(chain))
		for j, w := range chain {
			ids[j] = w.ID
		}
		st.Chains[i] = ids
	}
	return st
}

// RestoreDriver rebuilds a driver against a restored working memory,
// resolving recorded chain wme IDs to the live objects. The subsequent
// Batch sequence is identical to the one the exported driver would have
// produced.
func RestoreDriver(sys *System, tab *value.Table, mem *wme.Memory, st *DriverState) (*Driver, error) {
	d := NewDriver(sys, tab, mem)
	d.rng.s = st.RNG
	d.nextID = st.NextID
	d.targets = append([]int{}, st.Targets...)
	d.chains = make([][]*wme.WME, len(st.Chains))
	for i, ids := range st.Chains {
		chain := make([]*wme.WME, len(ids))
		for j, id := range ids {
			w := mem.Get(id)
			if w == nil {
				return nil, fmt.Errorf("cypress: chain wme %d not in working memory", id)
			}
			chain[j] = w
		}
		d.chains[i] = chain
	}
	return d, nil
}
