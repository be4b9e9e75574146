package rete

import (
	"fmt"

	"soarpsme/internal/wme"
)

// Dir is the input arc of a two-input node activation.
type Dir uint8

// DirLeft activations carry tokens (partial instantiations); DirRight
// activations carry wmes from an alpha memory (or, for bilinear joins and
// NCC partners, tokens from a side chain).
const (
	DirLeft Dir = iota
	DirRight
)

func (d Dir) String() string {
	if d == DirLeft {
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
	Tok  *Token   // left activations; BB right and NCC-partner inputs
	W    *wme.WME // join/not right activations

	// Supp, when non-nil, makes this a suppressed-batch task: many
	// empty-left right activations riding one scheduled task (Node is the
	// first entry's node, for tracing/attribution; Dir/Op/W are ignored).
	// Injectors batch these instead of executing them inline so the
	// empty-opposite memory ops parallelize across workers at full
	// granularity rather than serializing on the injection goroutine.
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

// Scheduler is what Exec needs from the runtime executing it. For every
// child activation Exec asks NewTask for a blank task — typically recycled
// from a per-worker free list — fills it and hands it to Push.
type Scheduler interface {
	NewTask() *Task
	Push(t *Task)
}

// Activation cost model, in simulated microseconds on the paper's 0.75-MIPS
// NS32032. Calibrated so the mean task cost lands near the ~400 µs of
// Table 6-1 on the three reproduced workloads.
const (
	CostBetaBase  = 260 // dequeue + dispatch + hash + lock/unlock
	CostCompare   = 35  // one join-test evaluation
	CostEmit      = 75  // build token + queue a child activation
	CostMemInsert = 60  // hash-line insert or remove
	CostPNode     = 220 // conflict-set update
)

// suppInline sizes the emitter's inline suppressed-run buffer; runs pending
// beyond it spill to a heap slice (rare — it takes more than suppInline
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
	tok  *Token
	op   wme.Op
}

// emitter schedules the child activations a task produces and carries the
// per-activation accounting: tokens emitted, plus the extra modeled cost
// of children executed inline by the unlink fast path. One emitter lives
// on the stack per Exec call and the exec bodies invoke em.emit directly,
// so the hot path allocates no closure.
//
// The pending suppressed runs are a LIFO stack of suppN entries: the first
// suppInline in suppBuf, the rest in spill. It is kept by index because a
// slice into suppBuf would point the emitter into itself, and that alone
// moves it to the heap (Go issue 35518); CI fails the build if exec.go
// reports "moved to heap" again.
type emitter struct {
	nw        *Network
	s         Scheduler
	parentSeq int64
	depth     int32 // chain depth of the emitting task; children get depth+1
	emitted   int
	cost      int64
	suppN     int
	suppBuf   [suppInline]suppRun
	spill     []suppRun
}

// pushSupp and popSupp are the suppressed-run stack (see emitter).
func (em *emitter) pushSupp(r suppRun) {
	if em.suppN < suppInline {
		em.suppBuf[em.suppN] = r
	} else {
		em.spill = append(em.spill, r)
	}
	em.suppN++
}

func (em *emitter) popSupp() suppRun {
	em.suppN--
	if em.suppN < suppInline {
		return em.suppBuf[em.suppN]
	}
	r := em.spill[len(em.spill)-1]
	em.spill = em.spill[:len(em.spill)-1]
	return r
}

func (em *emitter) emit(from *BetaNode, tok *Token, op wme.Op) {
	em.emitTo(from, from.Children, tok, op)
	if spliced := em.nw.own.betaKids; spliced != nil {
		// Own-layer children spliced under a base node (chunk splice); the
		// map is nil for sessions that never chunk and for owned networks.
		if kids := spliced[from.ID]; len(kids) > 0 {
			em.emitTo(from, kids, tok, op)
		}
	}
}

func (em *emitter) emitTo(from *BetaNode, children []*BetaNode, tok *Token, op wme.Op) {
	nw := em.nw
	for _, c := range children {
		dir := DirLeft
		if c.Kind == KindJoinBB && c.RightParent == from {
			dir = DirRight
		}
		if dir == DirLeft && nw.suppressLeft(c) {
			// Unlink fast path: the child join's right memory is provably
			// empty, so its own memory insert/remove runs on this goroutine
			// instead of costing a scheduled task. The run is buffered and
			// executed by drain's loop, never by recursion: executing it
			// here would turn a dependent chain of suppressed joins into
			// call-stack depth, and repeatedly growing the fresh worker
			// goroutines' stacks (runtime.newstack) is what made unlink=true
			// lose wall-clock on chain-heavy workloads.
			nw.Stats.NullSuppressed.Add(1)
			em.pushSupp(suppRun{node: c, tok: tok, op: op})
			continue
		}
		em.emitted++
		ct := em.s.NewTask()
		*ct = Task{Node: c, Dir: dir, Op: op, Tok: tok, ParentSeq: em.parentSeq, Depth: em.depth + 1}
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
		em.cost += em.nw.joinLeft(r.node, r.op, r.tok, em)
	}
}

// suppressLeft reports whether a left activation of c may be executed
// inline by the unlink fast path: a plain join whose right memory is
// provably empty. Not/NCC nodes never qualify on the left — an empty
// right memory means the token PASSES the negation and must still emit.
func (nw *Network) suppressLeft(c *BetaNode) bool {
	return nw.Opts.Unlink && c.Kind == KindJoin && nw.Mem.RightCount(c.ID) == 0
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
	if !nw.Opts.Unlink || c.Parent == nil || (c.Kind != KindJoin && c.Kind != KindNot) {
		return false
	}
	return nw.Mem.LeftCount(c.ID) == 0
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
	return nw.Opts.Unlink && nw.Mem.RightCount(n.ID) == 0
}

// leftScanSkip is the mirror of rightScanSkip for left memories.
func (nw *Network) leftScanSkip(n *BetaNode) bool {
	return nw.Opts.Unlink && nw.Mem.LeftCount(n.ID) == 0
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
	em := emitter{nw: nw, s: s}
	nw.Stats.NullSuppressed.Add(1)
	if n.Kind == KindJoin {
		nw.joinRight(n, op, w, &em)
	} else {
		nw.notRight(n, op, w, &em)
	}
	em.drain()
	nw.Stats.TokensEmitted.Add(int64(em.emitted))
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
		nw.Stats.NullSuppressed.Add(1)
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
// Exec is safe for concurrent use by many workers.
func (nw *Network) Exec(t *Task, s Scheduler) (cost int64, emitted int) {
	nw.Stats.Activations.Add(1)
	em := emitter{nw: nw, s: s, parentSeq: t.Seq, depth: t.Depth}
	cost = CostBetaBase

	n := t.Node
	switch {
	case t.Supp != nil:
		cost += nw.execSuppBatch(t.Supp, &em)
	case n.Kind == KindJoin:
		if t.Dir == DirLeft {
			cost += nw.joinLeft(n, t.Op, t.Tok, &em)
		} else {
			cost += nw.joinRight(n, t.Op, t.W, &em)
		}
	case n.Kind == KindNot:
		if t.Dir == DirLeft {
			cost += nw.notLeft(n, t.Op, t.Tok, &em)
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
		cost += nw.execP(t)
	}
	em.drain()
	cost += em.cost + int64(em.emitted)*CostEmit
	nw.Stats.TokensEmitted.Add(int64(em.emitted))
	if em.emitted == 0 {
		nw.Stats.NullActs.Add(1)
	}
	return cost, em.emitted
}

func (nw *Network) joinLeft(n *BetaNode, op wme.Op, tok *Token, em *emitter) int64 {
	var cost int64
	key := n.leftKeyFromToken(tok)
	line := nw.Mem.line(n.ID, key)
	var buf [matchInline]*wme.WME
	matches := buf[:0]
	line.Lock.Lock()
	proceed := true
	if op == wme.Add {
		proceed = !line.addLeft(n.ID, key, tok, 0)
	} else {
		_, proceed = line.removeLeft(n.ID, key, tok)
	}
	comparisons := 0
	if proceed && !nw.rightScanSkip(n) {
		line.eachRight(n.ID, key, func(e *REntry) {
			ok, c := n.testPair(tok, e.w)
			comparisons += c
			if ok {
				matches = append(matches, e.w)
			}
		})
	}
	line.Lock.Unlock()
	nw.Stats.Comparisons.Add(int64(comparisons))
	cost += CostMemInsert + int64(comparisons)*CostCompare
	for _, w := range matches {
		em.emit(n, Extend(tok, n.RightCE, w), op)
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
	line.Lock.Lock()
	proceed := true
	if op == wme.Add {
		proceed = !line.addRight(n.ID, key, w)
	} else {
		proceed = line.removeRight(n.ID, key, w)
	}
	comparisons := 0
	if proceed {
		if n.Parent == nil {
			// Top-level join: the left memory implicitly holds exactly the
			// dummy top token (first CEs have no join tests).
			matches = append(matches, DummyTop)
		} else if !nw.leftScanSkip(n) {
			line.eachLeft(n.ID, key, func(e *LEntry) {
				ok, c := n.testPair(e.tok, w)
				comparisons += c
				if ok {
					matches = append(matches, e.tok)
				}
			})
		}
	}
	line.Lock.Unlock()
	nw.Stats.Comparisons.Add(int64(comparisons))
	cost += CostMemInsert + int64(comparisons)*CostCompare
	for _, tok := range matches {
		em.emit(n, Extend(tok, n.RightCE, w), op)
	}
	return cost
}

func (nw *Network) notLeft(n *BetaNode, op wme.Op, tok *Token, em *emitter) int64 {
	var cost int64
	key := n.leftKeyFromToken(tok)
	line := nw.Mem.line(n.ID, key)
	comparisons := 0
	pass := false
	line.Lock.Lock()
	if op == wme.Add {
		var count int32
		if !nw.rightScanSkip(n) {
			line.eachRight(n.ID, key, func(e *REntry) {
				ok, c := n.testPair(tok, e.w)
				comparisons += c
				if ok {
					count++
				}
			})
		}
		pass = !line.addLeft(n.ID, key, tok, count) && count == 0
	} else {
		count, found := line.removeLeft(n.ID, key, tok)
		pass = found && count == 0
	}
	line.Lock.Unlock()
	nw.Stats.Comparisons.Add(int64(comparisons))
	cost += CostMemInsert + int64(comparisons)*CostCompare
	if pass {
		em.emit(n, tok, op)
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
	line.Lock.Lock()
	if op == wme.Add {
		if !line.addRight(n.ID, key, w) && !nw.leftScanSkip(n) {
			line.eachLeft(n.ID, key, func(e *LEntry) {
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
		if line.removeRight(n.ID, key, w) && !nw.leftScanSkip(n) {
			line.eachLeft(n.ID, key, func(e *LEntry) {
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
	line.Lock.Unlock()
	nw.Stats.Comparisons.Add(int64(comparisons))
	cost += CostMemInsert + int64(comparisons)*CostCompare
	// A new blocking wme retracts previously passing tokens; a removed
	// blocker re-admits them.
	flipOp := wme.Remove
	if op == wme.Remove {
		flipOp = wme.Add
	}
	for _, tok := range flips {
		em.emit(n, tok, flipOp)
	}
	return cost
}

func (nw *Network) execNCC(t *Task, em *emitter) int64 {
	n := t.Node
	key := t.Tok.Hash()
	line := nw.Mem.line(n.ID, key)
	pass := false
	comparisons := 0
	line.Lock.Lock()
	if t.Op == wme.Add {
		var count int32
		if !nw.rightScanSkip(n) {
			line.eachRight(n.ID, key, func(e *REntry) {
				comparisons++
				if e.owner.Equal(t.Tok) {
					count++
				}
			})
		}
		pass = !line.addLeft(n.ID, key, t.Tok, count) && count == 0
	} else {
		count, found := line.removeLeft(n.ID, key, t.Tok)
		pass = found && count == 0
	}
	line.Lock.Unlock()
	nw.Stats.Comparisons.Add(int64(comparisons))
	if pass {
		em.emit(n, t.Tok, t.Op)
	}
	return CostMemInsert + int64(comparisons)*CostCompare
}

func (nw *Network) execPartner(t *Task, em *emitter) int64 {
	n := t.Node
	ncc := n.Partner
	owner := ancestorAt(t.Tok, int16(n.BranchN))
	key := owner.Hash()
	line := nw.Mem.line(ncc.ID, key)
	var flip *Token
	line.Lock.Lock()
	if t.Op == wme.Add {
		if !line.addSubResult(ncc.ID, key, owner, t.Tok) {
			if e := line.findLeft(ncc.ID, key, owner); e != nil {
				e.count++
				if e.count == 1 {
					flip = owner
				}
			}
		}
	} else {
		if line.removeSubResult(ncc.ID, key, owner, t.Tok) {
			if e := line.findLeft(ncc.ID, key, owner); e != nil {
				e.count--
				if e.count == 0 {
					flip = owner
				}
			}
		}
	}
	line.Lock.Unlock()
	if flip != nil {
		flipOp := wme.Remove
		if t.Op == wme.Remove {
			flipOp = wme.Add
		}
		em.emit(ncc, flip, flipOp)
	}
	return CostMemInsert
}

func (nw *Network) execJoinBB(t *Task, em *emitter) int64 {
	n := t.Node
	ctxN := int16(n.BranchN)
	var cost int64
	comparisons := 0
	if t.Dir == DirLeft {
		ctx := ctxOf(t.Tok, ctxN)
		key := ctx.Hash() ^ n.bbLeftKey(t.Tok)
		line := nw.Mem.line(n.ID, key)
		var buf [matchInline]*Token
		matches := buf[:0]
		line.Lock.Lock()
		proceed := true
		if t.Op == wme.Add {
			proceed = !line.addLeft(n.ID, key, t.Tok, 0)
		} else {
			_, proceed = line.removeLeft(n.ID, key, t.Tok)
		}
		if proceed && !nw.rightScanSkip(n) {
			line.eachRight(n.ID, key, func(e *REntry) {
				comparisons++
				if !e.owner.Equal(ctx) {
					return
				}
				ok, c := n.testBBPair(t.Tok, e.sub)
				comparisons += c
				if ok {
					matches = append(matches, e.sub)
				}
			})
		}
		line.Lock.Unlock()
		nw.Stats.Comparisons.Add(int64(comparisons))
		cost += CostMemInsert + int64(comparisons)*CostCompare
		for _, r := range matches {
			em.emit(n, Pair(t.Tok, r), t.Op)
		}
		return cost
	}
	// Right activation: a token from the group sub-chain.
	ctx := ancestorAt(t.Tok, ctxN)
	stripped := stripAbove(t.Tok, ctxN)
	key := ctx.Hash() ^ n.bbRightKey(t.Tok)
	line := nw.Mem.line(n.ID, key)
	var buf [matchInline]*Token
	matches := buf[:0]
	line.Lock.Lock()
	proceed := true
	if t.Op == wme.Add {
		proceed = !line.addSubResult(n.ID, key, ctx, stripped)
	} else {
		proceed = line.removeSubResult(n.ID, key, ctx, stripped)
	}
	if proceed && !nw.leftScanSkip(n) {
		line.eachLeft(n.ID, key, func(e *LEntry) {
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
	line.Lock.Unlock()
	nw.Stats.Comparisons.Add(int64(comparisons))
	cost += CostMemInsert + int64(comparisons)*CostCompare
	for _, l := range matches {
		em.emit(n, Pair(l, stripped), t.Op)
	}
	return cost
}

func (nw *Network) execP(t *Task) int64 {
	n := t.Node
	key := t.Tok.Hash()
	line := nw.Mem.line(n.ID, key)
	// The conflict set is updated under the line lock: an add and a remove
	// of one token share this line, so the set sees them in the order the
	// P-node memory did. Released first, the pair could reach the set as
	// retract-then-insert — the retract a no-op, the insert stale for good.
	line.Lock.Lock()
	if t.Op == wme.Add {
		if !line.addLeft(n.ID, key, t.Tok, 0) && nw.CS != nil {
			nw.CS.Insert(n.Prod, t.Tok)
		}
	} else {
		if _, found := line.removeLeft(n.ID, key, t.Tok); found && nw.CS != nil {
			nw.CS.Retract(n.Prod, t.Tok)
		}
	}
	line.Lock.Unlock()
	return CostPNode
}

// ancestorAt returns the ancestor of t holding exactly n wmes, descending
// left sides of pair tokens (the context lives leftmost).
func ancestorAt(t *Token, n int16) *Token {
	for t != nil && t.N > n {
		if t.L != nil {
			t = t.L
		} else {
			t = t.Parent
		}
	}
	return t
}

// ctxOf returns the context ancestor of a (possibly pair) token.
func ctxOf(t *Token, n int16) *Token {
	for t.L != nil {
		t = t.L
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
	if t.N <= n {
		return DummyTop
	}
	if t.L != nil {
		return Pair(stripAbove(t.L, n), t.R)
	}
	return Extend(stripAbove(t.Parent, n), int(t.CE), t.W)
}
