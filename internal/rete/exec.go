package rete

import (
	"fmt"

	"soarpsme/internal/wme"
)

// Dir is the input arc of a two-input node activation.
type Dir uint8

// dirLeft activations carry tokens (partial instantiations); DirRight
// activations carry wmes from an alpha memory (or, for bilinear joins and
// NCC partners, tokens from a side chain).
const (
	dirLeft Dir = iota
	DirRight
)

func (d Dir) String() string {
	if d == dirLeft {
		return "left"
	}
	return "right"
}

// Task is one node activation — the unit of parallelism in PSM-E (§2.3).
// Seq/ParentSeq are trace metadata filled by the runtime.
type Task struct {
	Node *BetaNode
	Dir  Dir
	Op   wme.Op
	ce   int16    // with W on a token-carrying activation: see ref
	tok  *Token   // left activations; BB right and NCC-partner inputs
	W    *wme.WME // join/not right activations; a left remove's extension

	// Supp, when non-empty, makes this a suppressed-batch task: many
	// empty-left right activations riding one scheduled task (Node is the
	// first entry's node, for tracing/attribution; Dir/Op/W are ignored).
	// Injectors batch these instead of executing them inline so the
	// empty-opposite memory ops parallelize across workers at full
	// granularity rather than serializing on the injection goroutine. A
	// recycled task keeps its emptied array for the next batch.
	Supp []SuppRight

	Seq       int64
	ParentSeq int64
	// Depth is the task's position in its dependent activation chain:
	// injection roots are 0, each emitted child is parent+1. The profiler
	// reports chain depth as Depth+1 (so a root counts as depth 1).
	Depth int32
}

// TaskRec is the one per-task record. While anything is attached to a
// runtime — a trace capture, a profiler, observer hooks — the match process
// that executes a task appends one of these to a buffer of its own and does
// nothing else; profile cells, histograms, Chrome spans, flight dumps (the
// JSON form) and the simulator's input are all derived from the cycle's
// records after its workers have exited.
type TaskRec struct {
	Seq    int64 `json:"seq"`
	Parent int64 `json:"parent,omitempty"` // 0 for injected root tasks
	Cost   int64 `json:"costUS"`           // modeled µs (the Table 6-1 scale)
	// Start and Dur are wall-clock ns on the runtime's process clock, set
	// (Start != 0) only on timed records: every record when a tracer will
	// render the cycle as spans, one in the profiler's SampleEvery
	// otherwise. A timed task starts where its worker's previous clock
	// reading ended, so Dur includes the pop that fetched it.
	Start   int64    `json:"startNS,omitempty"`
	Dur     int64    `json:"durNS,omitempty"`
	Node    NodeID   `json:"node"`
	Depth   int32    `json:"depth"`             // chain depth (roots are 1)
	Worker  int32    `json:"worker"`            // match process that executed the task
	Emitted int32    `json:"emitted,omitempty"` // tokens emitted (0 = a null activation, §2.2)
	Kind    BetaKind `json:"kind"`
	Stolen  bool     `json:"stolen,omitempty"` // popped from another process's queue
}

// SuppRight is one suppressed right activation deferred into a batch task:
// the destination's left memory was empty when the activation was
// injected, so it carries no scan work — only its own memory insert or
// remove. The left-count snapshot is only a scheduling heuristic; the
// execution re-checks it under the line lock (leftScanSkip) and a relink
// race simply runs the scan and emits its matches like any other task.
type SuppRight struct {
	Node *BetaNode
	Op   wme.Op
	W    *wme.WME
}

func (t *Task) String() string {
	return fmt.Sprintf("%v %v %v", t.Node, t.Dir, t.Op)
}

// ref returns the token a token-carrying activation carries.
func (t *Task) ref() ref { return ref{tok: t.tok, w: t.W, ce: t.ce} }

// Scheduler is what Exec needs from the runtime executing it. For every
// child activation Exec asks NewTask for a blank task — typically recycled
// from a per-worker free list; every field is zero but Supp, which may keep
// an emptied batch array — fills it and hands it to Push. Proc is the
// process's own state, used only by the Exec running on that process.
type Scheduler interface {
	NewTask() *Task
	Push(t *Task)
	Proc() *Proc
}

// Proc is one match process's own state: whether it runs its cycle alone,
// the overflow buffer for its pending suppressed runs — a fan-out that
// spills reuses the array an earlier one grew — and its tallies of the
// network's counters. Only the process that owns it touches it while a
// cycle runs; its tallies reach the shared counters through Publish.
type Proc struct {
	// Alone is set while no other process runs in this one's cycle: no
	// peer can reach a hash line, so the emitter's lock only counts the
	// acquisition it skips. The runtime clears it before it starts a second process, and
	// that start publishes every write made without the lock.
	Alone bool
	runs  []suppRun
	tally tally
}

// tally is one process's share of NetStats' match-work counters and of its
// table's bucket-access and line-lock counts, kept in plain fields while a
// cycle runs.
type tally struct {
	activations, comparisons, tokens, nullActs, nullSupp int64
	// left and right count bucket accesses (line.touchLeft/touchRight);
	// skipped counts the line-lock acquisitions lock skipped while Alone.
	left, right, skipped uint64
}

// Publish adds p's tallies into the network's shared counters — NetStats,
// the table's bucket-access totals and its line-lock acquisitions — and
// zeroes them. A runtime calls it for each process once the processes of a
// cycle have exited, so those counters are exact as of the last finished
// cycle and are never bumped per activation.
func (nw *Network) Publish(p *Proc) {
	t := &p.tally
	st := &nw.Stats
	st.Activations.Add(t.activations)
	st.Comparisons.Add(t.comparisons)
	st.TokensEmitted.Add(t.tokens)
	st.NullActs.Add(t.nullActs)
	st.NullSuppressed.Add(t.nullSupp)
	m := nw.Mem
	m.left.Add(t.left)
	m.right.Add(t.right)
	m.skipped.Add(t.skipped)
	*t = tally{}
}

// Activation cost model, in simulated microseconds on the paper's 0.75-MIPS
// NS32032. Calibrated so the mean task cost lands near the ~400 µs of
// Table 6-1 on the three reproduced workloads.
const (
	costBetaBase  = 260 // dequeue + dispatch + hash + lock/unlock
	costCompare   = 35  // one join-test evaluation
	costEmit      = 75  // build token + queue a child activation
	costMemInsert = 60  // hash-line insert or remove
	costPNode     = 220 // conflict-set update
)

// suppInline sizes the emitter's inline suppressed-run buffer; runs pending
// beyond it spill to the process's Proc (it takes more than suppInline
// empty-right child joins pending at once, which outside a relink race
// means that much fan-out below one emitting node).
const suppInline = 8

// matchInline sizes the stack arrays the join bodies collect their matches
// in under the line lock; an activation with more matches spills to the heap.
const matchInline = 8

// suppRun is one pending suppressed left activation: a child join whose
// right memory was empty when its parent emitted. It is buffered and
// drained iteratively instead of executed by recursion — see drain.
type suppRun struct {
	node *BetaNode
	r    ref
	op   wme.Op
}

// emitter schedules the child activations a task produces and carries the
// per-activation accounting: tokens emitted, plus the extra modeled cost
// of children executed inline by the unlink fast path. One emitter lives
// on the stack per Exec call and the exec bodies invoke em.emit directly,
// so the hot path allocates no closure.
//
// The pending suppressed runs are a LIFO stack of suppN entries: the first
// suppInline in suppBuf, the rest in the process's Proc. It is kept by
// index because a slice into suppBuf would point the emitter into itself,
// and that alone moves it to the heap (Go issue 35518); CI fails the build
// if the match path reports "moved to heap" again.
type emitter struct {
	nw        *Network
	s         Scheduler
	p         *Proc // s.Proc(): the executing process
	parentSeq int64
	depth     int32 // chain depth of the emitting task; children get depth+1
	emitted   int
	cost      int64
	suppN     int
	suppBuf   [suppInline]suppRun
}

// lock takes line l for one activation's memory op and scan. A process
// running its cycle alone has no peer to exclude and only counts the
// acquisition it skips, so the line's own counters read as though no
// process had locked it; every other process locks.
func (em *emitter) lock(l *line) {
	if em.p.Alone {
		em.p.tally.skipped++
		return
	}
	l.lock.Lock()
}

// unlock releases what lock took.
func (em *emitter) unlock(l *line) {
	if !em.p.Alone {
		l.lock.Unlock()
	}
}

// pushSupp and popSupp are the suppressed-run stack (see emitter).
func (em *emitter) pushSupp(r suppRun) {
	if em.suppN < suppInline {
		em.suppBuf[em.suppN] = r
	} else {
		if em.suppN == suppInline {
			// The spill is logically empty here; an activation that
			// panicked may have left runs behind.
			em.p.runs = em.p.runs[:0]
		}
		em.p.runs = append(em.p.runs, r)
	}
	em.suppN++
}

func (em *emitter) popSupp() suppRun {
	em.suppN--
	if em.suppN < suppInline {
		return em.suppBuf[em.suppN]
	}
	runs := em.p.runs
	r := runs[len(runs)-1]
	runs[len(runs)-1] = suppRun{} // the kept array pins no token
	em.p.runs = runs[:len(runs)-1]
	return r
}

// extend emits tok + (from.rightCE, w). An add materializes the token once,
// since every child stores it; a remove names it by tok, the stored parent,
// since every child only finds the entry that holds it (see ref).
func (em *emitter) extend(from *BetaNode, tok *Token, w *wme.WME, op wme.Op) {
	if op == wme.Add {
		em.emit(from, ref{tok: Extend(tok, from.rightCE, w)}, op)
	} else {
		em.emit(from, ref{tok: tok, w: w, ce: int16(from.rightCE)}, op)
	}
}

func (em *emitter) emit(from *BetaNode, r ref, op wme.Op) {
	em.emitTo(from, from.children, r, op)
	if spliced := em.nw.own.betaKids; spliced != nil {
		// Own-layer children spliced under a base node (chunk splice); the
		// map is nil for sessions that never chunk and for owned networks.
		if kids := spliced[from.ID]; len(kids) > 0 {
			em.emitTo(from, kids, r, op)
		}
	}
}

func (em *emitter) emitTo(from *BetaNode, children []*BetaNode, r ref, op wme.Op) {
	nw := em.nw
	for _, c := range children {
		dir := dirLeft
		if c.Kind == KindJoinBB {
			// Pair joins store and pair whole tokens: a remove reaching one
			// materializes its token, once for every later child too.
			r = ref{tok: r.token()}
			if c.rightParent == from {
				dir = DirRight
			}
		}
		if dir == dirLeft && nw.suppressLeft(c) {
			// Unlink fast path: the child join's right memory is provably
			// empty, so its own memory insert/remove runs on this goroutine
			// instead of costing a scheduled task. The run is buffered and
			// executed by drain's loop, never by recursion: executing it
			// here would turn a dependent chain of suppressed joins into
			// call-stack depth, and repeatedly growing the fresh worker
			// goroutines' stacks (runtime.newstack) is what made unlink=true
			// lose wall-clock on chain-heavy workloads.
			em.p.tally.nullSupp++
			em.pushSupp(suppRun{node: c, r: r, op: op})
			continue
		}
		em.emitted++
		ct := em.s.NewTask()
		*ct = Task{Node: c, Dir: dir, Op: op, ce: r.ce, tok: r.tok, W: r.w, Supp: ct.Supp,
			ParentSeq: em.parentSeq, Depth: em.depth + 1}
		em.s.Push(ct)
	}
}

// drain executes pending suppressed left activations until none remain.
// Each execution may buffer more (joinLeft's emit re-enters for the next
// join down an empty chain), so this loop is the iterative replacement for
// the old inline recursion: chain depth becomes buffer length at a fixed
// stack depth. joinLeft re-checks the right-memory counter under the line
// lock; in the rare relink race the scan still runs and its matches emit
// through this same emitter.
func (em *emitter) drain() {
	for em.suppN > 0 {
		r := em.popSupp()
		em.cost += em.nw.joinLeft(r.node, r.op, r.r, em)
	}
}

// suppressLeft reports whether a left activation of c may be executed
// inline by the unlink fast path: a plain join whose right memory is
// provably empty. Not/NCC nodes never qualify on the left — an empty
// right memory means the token PASSES the negation and must still emit.
func (nw *Network) suppressLeft(c *BetaNode) bool {
	return nw.Opts.Unlink && c.Kind == KindJoin && nw.Mem.rightCount(c.ID) == 0
}

// suppressRight reports whether a right activation of c may be executed
// inline: a join or not node whose left memory is provably empty. The two
// sides are never unlinked at once — the own-side memory op always runs,
// and the opposite-side counter is re-checked under the line lock, so a
// simultaneous "both empty" decision cannot lose a pairing (whichever
// activation takes the shared line second observes the first's insert).
// Top-level joins (Parent == nil) match the implicit dummy token and are
// never suppressed; NCC partners must always record their sub-result.
func (nw *Network) suppressRight(c *BetaNode) bool {
	if !nw.Opts.Unlink || c.parent == nil || (c.Kind != KindJoin && c.Kind != KindNot) {
		return false
	}
	return nw.Mem.leftCount(c.ID) == 0
}

// rightScanSkip reports — under the line lock, after the activation's own
// memory op — that node n has no live right entries anywhere, so the
// opposite-side scan can be skipped. The unlocked counter reads in
// suppressLeft/suppressRight are only a scheduling heuristic; this locked
// re-check is what makes skipping exact: a token and wme that pass n's
// equality tests share a hash key and therefore a line, so the line lock
// serializes their memory ops, and reading the counter after our own
// insert means any concurrent opposite-side insert either is already
// visible here or will see our entry when its own scan runs.
func (nw *Network) rightScanSkip(n *BetaNode) bool {
	return nw.Opts.Unlink && nw.Mem.rightCount(n.ID) == 0
}

// leftScanSkip is the mirror of rightScanSkip for left memories.
func (nw *Network) leftScanSkip(n *BetaNode) bool {
	return nw.Opts.Unlink && nw.Mem.leftCount(n.ID) == 0
}

// SuppressRight reports whether a right activation of n can be deferred
// into a suppressed batch: its left memory is provably empty, so the
// activation carries only its own memory op. Injectors consult this to
// decide between scheduling a full task and appending a SuppRight entry.
func (nw *Network) SuppressRight(n *BetaNode) bool { return nw.suppressRight(n) }

// FilterRight applies the unlink fast path to a right activation arriving
// from the alpha network: when the destination's left memory is provably
// empty, the activation runs inline — its own memory insert/remove still
// happens; only the left scan and the task allocation/scheduling are
// skipped — and FilterRight returns true. Matches discovered in the rare
// relink race are scheduled through s. Callers must apply any update
// filter before calling (as they would before Push). The parallel
// injectors batch suppressed activations instead (SuppressRight + a Supp
// task); this inline path remains for the serial replay.
func (nw *Network) FilterRight(n *BetaNode, op wme.Op, w *wme.WME, s Scheduler) bool {
	if !nw.suppressRight(n) {
		return false
	}
	em := emitter{nw: nw, s: s, p: s.Proc()}
	em.p.tally.nullSupp++
	if n.Kind == KindJoin {
		nw.joinRight(n, op, w, &em)
	} else {
		nw.notRight(n, op, w, &em)
	}
	em.drain()
	em.p.tally.tokens += int64(em.emitted)
	return true
}

// execSuppBatch executes a suppressed-batch task: every entry's own memory
// op runs, the left scan is skipped exactly when the left memory is still
// empty under the line lock, and relink-race matches emit through em. Each
// entry counts toward NullSuppressed — the batch task itself is the only
// scheduled activation the whole run costs.
func (nw *Network) execSuppBatch(batch []SuppRight, em *emitter) int64 {
	var cost int64
	for _, e := range batch {
		em.p.tally.nullSupp++
		if e.Node.Kind == KindJoin {
			cost += nw.joinRight(e.Node, e.Op, e.W, em)
		} else {
			cost += nw.notRight(e.Node, e.Op, e.W, em)
		}
	}
	return cost
}

// Exec executes one node activation, pushing child activations onto s.
// It returns the task's modeled cost and the number of tokens it emitted.
// Exec is safe for concurrent use by many workers, each with its own Proc;
// what it counts stays in that Proc until Publish.
func (nw *Network) Exec(t *Task, s Scheduler) (cost int64, emitted int) {
	em := emitter{nw: nw, s: s, p: s.Proc(), parentSeq: t.Seq, depth: t.Depth}
	em.p.tally.activations++
	cost = costBetaBase

	n := t.Node
	switch {
	case len(t.Supp) > 0:
		cost += nw.execSuppBatch(t.Supp, &em)
	case n.Kind == KindJoin:
		if t.Dir == dirLeft {
			cost += nw.joinLeft(n, t.Op, t.ref(), &em)
		} else {
			cost += nw.joinRight(n, t.Op, t.W, &em)
		}
	case n.Kind == KindNot:
		if t.Dir == dirLeft {
			cost += nw.notLeft(n, t.Op, t.ref(), &em)
		} else {
			cost += nw.notRight(n, t.Op, t.W, &em)
		}
	case n.Kind == KindNCC:
		cost += nw.execNCC(t, &em)
	case n.Kind == KindNCCPartner:
		cost += nw.execPartner(t, &em)
	case n.Kind == KindJoinBB:
		cost += nw.execJoinBB(t, &em)
	case n.Kind == KindP:
		cost += nw.execP(t, &em)
	}
	em.drain()
	cost += em.cost + int64(em.emitted)*costEmit
	em.p.tally.tokens += int64(em.emitted)
	if em.emitted == 0 {
		em.p.tally.nullActs++
	}
	return cost, em.emitted
}

// joinLeft and the other token-input bodies key an activation by the token
// r names and continue from a stored token: on an add the one r carries,
// which they store; on a remove the one they found and deleted.
func (nw *Network) joinLeft(n *BetaNode, op wme.Op, r ref, em *emitter) int64 {
	var cost int64
	var probe Token
	key := n.leftKeyFromToken(r.probe(&probe))
	line := nw.Mem.line(n.ID, key)
	var buf [matchInline]*wme.WME
	matches := buf[:0]
	em.lock(line)
	var tok *Token
	proceed := true
	if op == wme.Add {
		tok = r.token()
		proceed = !line.addLeft(em.p, n.ID, key, tok, 0)
	} else {
		tok, _, proceed = line.removeLeft(em.p, n.ID, key, r)
	}
	comparisons := 0
	if proceed && !nw.rightScanSkip(n) {
		line.eachRight(em.p, n.ID, key, func(e *rEntry) {
			ok, c := n.testPair(tok, e.w)
			comparisons += c
			if ok {
				matches = append(matches, e.w)
			}
		})
	}
	em.unlock(line)
	em.p.tally.comparisons += int64(comparisons)
	cost += costMemInsert + int64(comparisons)*costCompare
	for _, w := range matches {
		em.extend(n, tok, w, op)
	}
	return cost
}

func (nw *Network) joinRight(n *BetaNode, op wme.Op, w *wme.WME, em *emitter) int64 {
	// Right activation: a wme from the alpha memory.
	var cost int64
	key := n.rightKeyFromWME(w)
	line := nw.Mem.line(n.ID, key)
	var buf [matchInline]*Token
	matches := buf[:0]
	em.lock(line)
	proceed := true
	if op == wme.Add {
		proceed = !line.addRight(em.p, n.ID, key, w)
	} else {
		proceed = line.removeRight(em.p, n.ID, key, w)
	}
	comparisons := 0
	if proceed {
		if n.parent == nil {
			// Top-level join: the left memory implicitly holds exactly the
			// dummy top token (first CEs have no join tests).
			matches = append(matches, DummyTop)
		} else if !nw.leftScanSkip(n) {
			line.eachLeft(em.p, n.ID, key, func(e *lEntry) {
				ok, c := n.testPair(e.tok, w)
				comparisons += c
				if ok {
					matches = append(matches, e.tok)
				}
			})
		}
	}
	em.unlock(line)
	em.p.tally.comparisons += int64(comparisons)
	cost += costMemInsert + int64(comparisons)*costCompare
	for _, tok := range matches {
		em.extend(n, tok, w, op)
	}
	return cost
}

func (nw *Network) notLeft(n *BetaNode, op wme.Op, r ref, em *emitter) int64 {
	var cost int64
	var probe Token
	key := n.leftKeyFromToken(r.probe(&probe))
	line := nw.Mem.line(n.ID, key)
	comparisons := 0
	pass := false
	var tok *Token
	em.lock(line)
	if op == wme.Add {
		tok = r.token()
		var count int32
		if !nw.rightScanSkip(n) {
			line.eachRight(em.p, n.ID, key, func(e *rEntry) {
				ok, c := n.testPair(tok, e.w)
				comparisons += c
				if ok {
					count++
				}
			})
		}
		pass = !line.addLeft(em.p, n.ID, key, tok, count) && count == 0
	} else {
		var count int32
		var found bool
		tok, count, found = line.removeLeft(em.p, n.ID, key, r)
		pass = found && count == 0
	}
	em.unlock(line)
	em.p.tally.comparisons += int64(comparisons)
	cost += costMemInsert + int64(comparisons)*costCompare
	if pass {
		em.emit(n, ref{tok: tok}, op)
	}
	return cost
}

func (nw *Network) notRight(n *BetaNode, op wme.Op, w *wme.WME, em *emitter) int64 {
	// Right activation: a blocking wme appears or disappears.
	var cost int64
	key := n.rightKeyFromWME(w)
	line := nw.Mem.line(n.ID, key)
	var buf [matchInline]*Token
	flips := buf[:0]
	comparisons := 0
	em.lock(line)
	if op == wme.Add {
		if !line.addRight(em.p, n.ID, key, w) && !nw.leftScanSkip(n) {
			line.eachLeft(em.p, n.ID, key, func(e *lEntry) {
				ok, c := n.testPair(e.tok, w)
				comparisons += c
				if ok {
					e.count++
					if e.count == 1 {
						flips = append(flips, e.tok)
					}
				}
			})
		}
	} else {
		if line.removeRight(em.p, n.ID, key, w) && !nw.leftScanSkip(n) {
			line.eachLeft(em.p, n.ID, key, func(e *lEntry) {
				ok, c := n.testPair(e.tok, w)
				comparisons += c
				if ok {
					e.count--
					if e.count == 0 {
						flips = append(flips, e.tok)
					}
				}
			})
		}
	}
	em.unlock(line)
	em.p.tally.comparisons += int64(comparisons)
	cost += costMemInsert + int64(comparisons)*costCompare
	// A new blocking wme retracts previously passing tokens; a removed
	// blocker re-admits them.
	flipOp := wme.Remove
	if op == wme.Remove {
		flipOp = wme.Add
	}
	for _, tok := range flips {
		em.emit(n, ref{tok: tok}, flipOp)
	}
	return cost
}

func (nw *Network) execNCC(t *Task, em *emitter) int64 {
	n := t.Node
	r := t.ref()
	var probe Token
	key := r.probe(&probe).Hash()
	line := nw.Mem.line(n.ID, key)
	pass := false
	comparisons := 0
	var tok *Token
	em.lock(line)
	if t.Op == wme.Add {
		tok = r.token()
		var count int32
		if !nw.rightScanSkip(n) {
			line.eachRight(em.p, n.ID, key, func(e *rEntry) {
				comparisons++
				if e.owner.Equal(tok) {
					count++
				}
			})
		}
		pass = !line.addLeft(em.p, n.ID, key, tok, count) && count == 0
	} else {
		var count int32
		var found bool
		tok, count, found = line.removeLeft(em.p, n.ID, key, r)
		pass = found && count == 0
	}
	em.unlock(line)
	em.p.tally.comparisons += int64(comparisons)
	if pass {
		em.emit(n, ref{tok: tok}, t.Op)
	}
	return costMemInsert + int64(comparisons)*costCompare
}

func (nw *Network) execPartner(t *Task, em *emitter) int64 {
	n := t.Node
	ncc := n.partner
	r := t.ref()
	// A sub-result extends its owner by at least one wme, so when r names
	// it by its stored parent the owner is that parent or above it.
	owner := ancestorAt(r.tok, int16(n.branchN))
	key := owner.Hash()
	line := nw.Mem.line(ncc.ID, key)
	var flip *Token
	em.lock(line)
	if t.Op == wme.Add {
		if !line.addSubResult(em.p, ncc.ID, key, owner, r.token()) {
			if e := line.findLeft(ncc.ID, key, owner); e != nil {
				e.count++
				if e.count == 1 {
					flip = owner
				}
			}
		}
	} else {
		if line.removeSubResult(em.p, ncc.ID, key, owner, r) {
			if e := line.findLeft(ncc.ID, key, owner); e != nil {
				e.count--
				if e.count == 0 {
					flip = owner
				}
			}
		}
	}
	em.unlock(line)
	if flip != nil {
		flipOp := wme.Remove
		if t.Op == wme.Remove {
			flipOp = wme.Add
		}
		em.emit(ncc, ref{tok: flip}, flipOp)
	}
	return costMemInsert
}

func (nw *Network) execJoinBB(t *Task, em *emitter) int64 {
	n := t.Node
	ctxN := int16(n.branchN)
	var cost int64
	comparisons := 0
	if t.Dir == dirLeft {
		ctx := ctxOf(t.tok, ctxN)
		key := ctx.Hash() ^ n.bbLeftKey(t.tok)
		line := nw.Mem.line(n.ID, key)
		var buf [matchInline]*Token
		matches := buf[:0]
		em.lock(line)
		proceed := true
		if t.Op == wme.Add {
			proceed = !line.addLeft(em.p, n.ID, key, t.tok, 0)
		} else {
			_, _, proceed = line.removeLeft(em.p, n.ID, key, ref{tok: t.tok})
		}
		if proceed && !nw.rightScanSkip(n) {
			line.eachRight(em.p, n.ID, key, func(e *rEntry) {
				comparisons++
				if !e.owner.Equal(ctx) {
					return
				}
				ok, c := n.testBBPair(t.tok, e.sub)
				comparisons += c
				if ok {
					matches = append(matches, e.sub)
				}
			})
		}
		em.unlock(line)
		em.p.tally.comparisons += int64(comparisons)
		cost += costMemInsert + int64(comparisons)*costCompare
		for _, r := range matches {
			em.emit(n, ref{tok: pair(t.tok, r)}, t.Op)
		}
		return cost
	}
	// Right activation: a token from the group sub-chain.
	ctx := ancestorAt(t.tok, ctxN)
	stripped := stripAbove(t.tok, ctxN)
	key := ctx.Hash() ^ n.bbRightKey(t.tok)
	line := nw.Mem.line(n.ID, key)
	var buf [matchInline]*Token
	matches := buf[:0]
	em.lock(line)
	proceed := true
	if t.Op == wme.Add {
		proceed = !line.addSubResult(em.p, n.ID, key, ctx, stripped)
	} else {
		proceed = line.removeSubResult(em.p, n.ID, key, ctx, ref{tok: stripped})
	}
	if proceed && !nw.leftScanSkip(n) {
		line.eachLeft(em.p, n.ID, key, func(e *lEntry) {
			comparisons++
			if !ctxOf(e.tok, ctxN).Equal(ctx) {
				return
			}
			ok, c := n.testBBPair(e.tok, stripped)
			comparisons += c
			if ok {
				matches = append(matches, e.tok)
			}
		})
	}
	em.unlock(line)
	em.p.tally.comparisons += int64(comparisons)
	cost += costMemInsert + int64(comparisons)*costCompare
	for _, l := range matches {
		em.emit(n, ref{tok: pair(l, stripped)}, t.Op)
	}
	return cost
}

func (nw *Network) execP(t *Task, em *emitter) int64 {
	n := t.Node
	r := t.ref()
	var probe Token
	key := r.probe(&probe).Hash()
	line := nw.Mem.line(n.ID, key)
	// The conflict set is updated under the line lock: an add and a remove
	// of one token share this line, so the set sees them in the order the
	// P-node memory did. Released first, the pair could reach the set as
	// retract-then-insert — the retract a no-op, the insert stale for good.
	// A retract hands the set the stored token, the one it inserted.
	em.lock(line)
	if t.Op == wme.Add {
		if tok := r.token(); !line.addLeft(em.p, n.ID, key, tok, 0) && nw.CS != nil {
			nw.CS.Insert(n.prod, tok)
		}
	} else {
		if tok, _, found := line.removeLeft(em.p, n.ID, key, r); found && nw.CS != nil {
			nw.CS.Retract(n.prod, tok)
		}
	}
	em.unlock(line)
	return costPNode
}

// ancestorAt returns the ancestor of t holding exactly n wmes, descending
// left sides of pair tokens (the context lives leftmost).
func ancestorAt(t *Token, n int16) *Token {
	for t != nil && t.n > n {
		if t.l != nil {
			t = t.l
		} else {
			t = t.parent
		}
	}
	return t
}

// ctxOf returns the context ancestor of a (possibly pair) token.
func ctxOf(t *Token, n int16) *Token {
	for t.l != nil {
		t = t.l
	}
	return ancestorAt(t, n)
}

// stripAbove rebuilds the extension of t above its ancestor with n wmes,
// re-rooted on the dummy top (bilinear right inputs are stored and paired
// without their shared context). Pair tokens — the right input of a
// balanced pair-join tree is another bilinear join — carry the context in
// their leftmost component only, so stripping recurses down the left side
// and keeps the (already stripped) right side intact.
func stripAbove(t *Token, n int16) *Token {
	if t.n <= n {
		return DummyTop
	}
	if t.l != nil {
		return pair(stripAbove(t.l, n), t.r)
	}
	return Extend(stripAbove(t.parent, n), int(t.ce), t.w)
}
