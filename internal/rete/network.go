package rete

import (
	"cmp"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// Organization selects the beta-network shape (paper §6.2).
type Organization uint8

// Linear is OPS5's left-to-right join chain; Bilinear is the constrained
// bilinear organization of Figure 6-8, which shortens dependent activation
// chains by matching groups of CEs in parallel sub-chains constrained by a
// shared context prefix and pair-joining the group results. BilinearAuto
// is the measurement-driven restructuring pass: it selects victims
// deterministically at compile time — productions whose linear join chain
// would reach BilinearDepth two-input nodes — and combines their
// group sub-chains with a balanced binary pair-join tree instead of the
// fixed left spine, bounding dependent-chain depth at
// context + group + ceil(log2 groups). Everything else stays linear.
const (
	Linear Organization = iota
	Bilinear
	BilinearAuto
)

func (o Organization) String() string {
	switch o {
	case Bilinear:
		return "all"
	case BilinearAuto:
		return "auto"
	}
	return "off"
}

// BilinearDepth is BilinearAuto's victim threshold: a production whose
// linear join chain would reach this many two-input nodes is restructured;
// shorter chains stay linear. The cypress 20-32-CE productions qualify, the
// hand tasks' short rules don't. Selection is structural — it depends only
// on the production source and the network options — so every session
// sharing a compiled image agrees on it.
const BilinearDepth = 16

// hashLines is the number of lines in a network's global token tables.
const hashLines = 1024

// Options configure network construction.
type Options struct {
	// ShareBeta enables two-input-node sharing (the paper measures a
	// 20-30% loss without it; Table 5-2 uses this toggle).
	ShareBeta bool
	// Organization selects Linear or Bilinear network shape.
	Organization Organization
	// ContextCEs is the length of the shared context prefix for Bilinear.
	ContextCEs int
	// GroupCEs is the sub-chain group size for Bilinear.
	GroupCEs int
	// LinearMemories disables hashing: a node's tokens all share one
	// bucket and every join scans the node's whole opposite memory — the
	// §6.1 "linear lists" baseline ablation.
	LinearMemories bool
	// Unlink enables left/right unlinking: per-node live-entry counters
	// let the engine run an activation against a provably empty opposite
	// memory inline (own memory op only) instead of scheduling a task,
	// and skip opposite-side scans under the line lock. Off reproduces
	// the paper's unfiltered engine; the conflict sets are identical
	// either way.
	Unlink bool
}

// DefaultOptions returns the production configuration: shared network,
// hashed memories, linear organization, unlinking on.
func DefaultOptions() Options {
	return Options{ShareBeta: true, ContextCEs: 2, GroupCEs: 4, Unlink: true}
}

// ConflictListener receives instantiation insertions and retractions from
// P nodes. Implementations must be safe for concurrent use.
type ConflictListener interface {
	Insert(p *Production, t *Token)
	Retract(p *Production, t *Token)
}

// NetStats aggregates match-work counters across all workers. ConstTests
// and the alpha-dispatch counts are bumped at injection; the rest are each
// process's tallies, added once per process per cycle (Publish), so they
// read exact between cycles.
type NetStats struct {
	ConstTests    atomic.Int64 // alpha-network test executions
	Activations   atomic.Int64 // beta tasks executed
	Comparisons   atomic.Int64 // join-test evaluations
	TokensEmitted atomic.Int64
	NullActs      atomic.Int64 // activations that produced nothing
	// NullSuppressed counts activations the unlink filter executed inline
	// instead of scheduling (the opposite memory was provably empty).
	NullSuppressed atomic.Int64
	// AlphaHits/AlphaMisses count hashed alpha-dispatch probes that did /
	// did not find a matching constant-test subtree.
	AlphaHits   atomic.Int64
	AlphaMisses atomic.Int64
}

// Network is one session's view of a Rete network: a compiled graph in two
// layers — a base that is read-only and possibly shared with other sessions,
// and an own layer that every construction write goes to — plus this
// session's mutable match state (token tables, unlink counters, conflict
// set). An owned network (NewNetwork) is simply one whose base is empty.
// Construction and production addition are serialized (Soar adds chunks only
// at quiescence); task execution is fully parallel.
type Network struct {
	Tab  *value.Table
	Reg  *wme.Registry
	Mem  *Mem
	Opts Options
	CS   ConflictListener

	Stats NetStats

	// Prof, when non-nil, receives per-node match-cost attribution: any
	// runtime driving this network records its tasks and folds them in
	// after each cycle. Installed once before any cycle runs (engine setup)
	// and never replaced, so it is read as a plain field.
	Prof *Prof

	mu   sync.Mutex // guards construction state: the own layer, and base until Freeze
	base *Topology  // never nil; empty for an owned network
	own  layer

	// scratch holds the tests of the production being compiled and the
	// update path of the one just built (callers hold nw.mu); AddProduction
	// reuses it for every production.
	scratch struct {
		alpha []alphaTest
		join  []JoinTest
		path  []NodeID
	}
}

// NewNetwork creates an empty owned network: a session over an empty base.
func NewNetwork(tab *value.Table, reg *wme.Registry, cs ConflictListener, opts Options) *Network {
	return NewFromTopology(&Topology{tab: tab, reg: reg, opts: opts}, cs, opts)
}

// newID hands out the next monotone node ID (callers hold nw.mu).
func (nw *Network) newID() NodeID {
	nw.own.nextID++
	return nw.own.nextID
}

// MaxNodeID returns the largest node ID assigned so far, in either layer.
func (nw *Network) MaxNodeID() NodeID {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.own.nextID
}

// TwoInputNodes returns the number of two-input nodes in the network.
func (nw *Network) TwoInputNodes() int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.base.nTwoInput + nw.own.nTwoInput
}

// Productions returns the compiled productions in definition order: the
// base's followed by the own layer's.
func (nw *Network) Productions() []*Production {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return append(nw.base.Productions(), nw.own.prodOrder...)
}

// Lookup returns a compiled production by name.
func (nw *Network) Lookup(name string) *Production {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if p := nw.base.prods[name]; p != nil {
		return p
	}
	return nw.own.prods[name]
}

// ---- alpha network ----

// appendAlphaKey appends the canonical sharing key for a test path, e.g.
// "c7|f0 = sym#17|f1 in 3 4|f2 > f1" (testdata/alphakey.golden).
func appendAlphaKey(b []byte, class value.Sym, tests []alphaTest) []byte {
	b = strconv.AppendUint(append(b, 'c'), uint64(class), 10)
	for _, t := range tests {
		b = strconv.AppendInt(append(b, "|f"...), int64(t.field), 10)
		if t.disj != nil {
			b = append(b, " in"...)
			for _, d := range t.disj {
				b = d.AppendTo(append(b, ' '))
			}
			continue
		}
		b = append(append(append(b, ' '), t.pred.String()...), ' ')
		if t.vsField {
			b = strconv.AppendInt(append(b, 'f'), int64(t.other), 10)
			continue
		}
		b = t.val.AppendTo(b)
	}
	return b
}

// sortAlphaTests puts tests in canonical order to maximize path sharing.
func sortAlphaTests(tests []alphaTest) {
	slices.SortStableFunc(tests, func(a, b alphaTest) int {
		if c := cmp.Compare(a.field, b.field); c != 0 {
			return c
		}
		if a.vsField != b.vsField {
			if a.vsField {
				return 1
			}
			return -1
		}
		return cmp.Compare(a.pred, b.pred)
	})
}

// buildAlpha returns (creating as needed) the alpha memory for a class and
// test sequence. Constant-test nodes are shared by path prefix; memories by
// full path. The base's trees are traversed read-only: whatever is missing
// is created in the own layer and, where its parent is a base node, hung
// in that node's holder (callers hold nw.mu).
func (nw *Network) buildAlpha(class value.Sym, tests []alphaTest) *alphaMem {
	own := &nw.own
	sortAlphaTests(tests)
	var buf [128]byte
	kb := appendAlphaKey(buf[:0], class, tests)
	if am, ok := nw.base.alphaMems[string(kb)]; ok {
		return am
	}
	if am, ok := own.alphaMems[string(kb)]; ok {
		return am
	}
	key := string(kb)
	cur := nw.alphaRoot(class)
	if cur == nil {
		cur = &alphaNode{id: nw.newID()}
		own.roots[class] = cur
	}
	for _, t := range tests {
		next := cur.child(t)
		if next == nil {
			w := nw.writable(cur)
			if next = w.child(t); next == nil {
				next = &alphaNode{id: nw.newID(), test: t, parent: cur}
				w.indexChild(next)
			}
		}
		cur = next
	}
	// A base terminal has no memory for this key (it would have hit
	// base.alphaMems above): the memory goes in its holder.
	w := nw.writable(cur)
	if w.mem == nil {
		w.mem = &alphaMem{id: nw.newID(), at: cur}
	}
	own.alphaMems[key] = w.mem
	return w.mem
}

// writable returns the alpha node the own layer writes to for n: n itself,
// or, for a base node, its holder — made on first use — which carries n's
// ID and holds the children and the memory spliced under n.
func (nw *Network) writable(n *alphaNode) *alphaNode {
	if !nw.inBase(n.id) {
		return n
	}
	at := nw.own.spliced().alphaAt
	h := at[n.id]
	if h == nil {
		h = &alphaNode{id: n.id, parent: n}
		at[n.id] = h
	}
	return h
}

// alphaRoot returns the constant-test tree of a class: the base's, or the
// own layer's for a class the base has none for.
func (nw *Network) alphaRoot(class value.Sym) *alphaNode {
	if root := nw.base.roots[class]; root != nil {
		return root
	}
	return nw.own.roots[class]
}

// InjectFn receives the right activations produced by an alpha-network
// walk: one per (two-input node, wme) whose alpha path passed.
type InjectFn func(n *BetaNode, w *wme.WME, op wme.Op)

// Inject runs one wme change through the constant-test network, calling
// emit for every destination two-input node. The alpha network is executed
// inline (one-input nodes are cheap; the tasks PSM-E schedules are the
// two-input activations — paper §2.2/§2.3).
func (nw *Network) Inject(d wme.Delta, emit InjectFn) {
	if root := nw.alphaRoot(d.WME.Class); root != nil {
		nw.walkAlpha(root, d, nil, emit)
	}
}

// walkAlpha is the one alpha walk: it runs d down the tree below n and
// emits a right activation at every two-input node fed by a memory d
// reaches. upd is nil for a match; a state update's walk keeps to upd's
// paths and emits only at its new nodes (see InjectUpdate).
func (nw *Network) walkAlpha(n *alphaNode, d wme.Delta, upd *AddInfo, emit InjectFn) {
	own := &nw.own
	if am := n.mem; am != nil && upd.walks(am.id) {
		for _, succ := range upd.reached(am.succs) {
			emit(succ, d.WME, d.Op)
		}
		if own.alphaSuccs != nil {
			// Own-layer joins taking right input from this base memory (an
			// own memory's successors are all in succs above).
			for _, succ := range upd.reached(own.alphaSuccs[am.id]) {
				emit(succ, d.WME, d.Op)
			}
		}
	}
	// Hashed dispatch: one map probe per field any equality child tests,
	// replacing a linear scan over all of those children.
	for _, f := range n.eqFields {
		nw.Stats.ConstTests.Add(1)
		if c, ok := n.eqKids[alphaEqKey{field: f, val: d.WME.Field(f)}]; ok {
			nw.Stats.AlphaHits.Add(1)
			if upd.walks(c.id) {
				nw.walkAlpha(c, d, upd, emit)
			}
		} else {
			nw.Stats.AlphaMisses.Add(1)
		}
	}
	for _, c := range n.linear {
		if upd.walks(c.id) {
			nw.Stats.ConstTests.Add(1)
			if c.test.matches(d.WME.Field) {
				nw.walkAlpha(c, d, upd, emit)
			}
		}
	}
	if own.alphaAt != nil && nw.inBase(n.id) {
		// What the own layer hung at this base node, walked by this same
		// body: its holder carries the node's ID, so the walk ends there.
		if h := own.alphaAt[n.id]; h != nil && h != n {
			nw.walkAlpha(h, d, upd, emit)
		}
	}
}

// ResetMatchState discards all match state — every left/right hash-table
// entry — by installing a fresh Mem, leaving the compiled network intact.
// It is the first step of the engine's degradation path: after a poisoned
// parallel cycle the partial memories are unrecoverable piecemeal (there is
// no telling which inserts landed), so they are dropped wholesale and
// re-derived by a serial replay of working memory. Must not be called while
// a cycle is running.
func (nw *Network) ResetMatchState() {
	nw.Mem = newMem(hashLines)
	// The fresh table starts with zeroed unlink counters, which is exactly
	// right (no live entries); size them for the existing nodes so the
	// replay can maintain them without reallocation.
	nw.Mem.nc.grow(int(nw.MaxNodeID()) + 1)
	nw.Prof.grow(int(nw.MaxNodeID()) + 1)
}

// walkBeta visits every beta node reachable from the top, once — base and
// own layer both.
func (nw *Network) walkBeta(fn func(*BetaNode)) {
	nw.mu.Lock()
	tops := nw.childrenOf(nil)
	nw.mu.Unlock()
	seen := make(map[NodeID]bool)
	var rec func(n *BetaNode)
	rec = func(n *BetaNode) {
		if n == nil || seen[n.ID] {
			return
		}
		seen[n.ID] = true
		fn(n)
		for _, c := range nw.childrenOf(n) {
			rec(c)
		}
		if n.partner != nil && n.Kind == KindNCC {
			rec(n.partner)
		}
	}
	for _, t := range tops {
		rec(t)
	}
}
