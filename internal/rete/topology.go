package rete

import (
	"fmt"

	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// layer is one stratum of a compiled network graph: the alpha constant-test
// trees, the beta graph and the production metadata it holds itself, plus
// the splice maps that attach its nodes under nodes of the layer below —
// the paper's §5 jumptable splice of an unshared suffix. A Network is two of
// them: a read-only base, shared by any number of sessions, and the own
// layer every construction write goes to.
//
// Invariants: node IDs continue from the layer below (a node is in the base
// iff its ID <= base.nextID), so the two layers' IDs never meet and a splice
// map is keyed only by base IDs; base nodes are never written through — not
// their child or successor lists, and not refs (base nodes are permanent, so
// excising an own production skips them). IDs only index a session's own
// state vectors, so two sessions handing out the same own ID never interfere.
type layer struct {
	nextID    NodeID                   // largest ID handed out (the base's, then this layer's)
	roots     map[value.Sym]*alphaNode // class -> test tree root, for classes the base has none for
	alphaMems map[string]*alphaMem     // canonical path key -> memory
	prods     map[string]*Production
	prodOrder []*Production
	topNodes  []*BetaNode // first-CE nodes (dummy-top children)
	nTwoInput int         // join/not/ncc/bb node count (statistics)

	// Splice maps, keyed by the ID of the base node shadowed. All three are
	// nil until the first splice (see spliced).
	alphaAt    map[NodeID]*alphaNode  // holder of the test children and memory hung at a base alpha node
	alphaSuccs map[NodeID][]*BetaNode // successors of a base alpha memory
	betaKids   map[NodeID][]*BetaNode // children under a base beta node
}

// newLayer returns an empty layer whose IDs continue from below.
func newLayer(below NodeID) layer {
	return layer{
		nextID:    below,
		roots:     make(map[value.Sym]*alphaNode),
		alphaMems: make(map[string]*alphaMem),
		prods:     make(map[string]*Production),
	}
}

// spliced returns l with its splice maps made. They are made together, on
// the first splice, so each hot path (walkAlpha, emitter.emit) tells
// "nothing spliced" from one nil test: a session that never chunks pays one
// predictable branch there, and an owned network — whose base is empty, so
// nothing can be spliced under it — never probes a splice map at all.
func (l *layer) spliced() *layer {
	if l.betaKids == nil {
		l.alphaAt = make(map[NodeID]*alphaNode)
		l.alphaSuccs = make(map[NodeID][]*BetaNode)
		l.betaKids = make(map[NodeID][]*BetaNode)
	}
	return l
}

// Topology is a base layer handed out for sharing: compiled once per
// canonical program and frozen (Freeze), it is referenced read-only by any
// number of Networks, each of which owns only its own layer and its mutable
// match state (token tables, unlink counters, conflict set). It extends the
// paper's node-sharing economy across sessions.
//
// The topology keeps the symbol table and class registry it was compiled
// against, frozen with it: node tests hold interned Syms and field indices.
// Every Network stamped from it gets its own copy of both, so what one
// session interns or extends no other session sees.
type Topology struct {
	tab  *value.Table  // set by Freeze
	reg  *wme.Registry // set by Freeze
	opts Options       // as compiled; Unlink is a per-session override
	layer
}

// TwoInputNodes returns the number of shared two-input nodes.
func (t *Topology) TwoInputNodes() int { return t.nTwoInput }

// Productions returns the compiled base productions in definition order.
func (t *Topology) Productions() []*Production {
	return append([]*Production(nil), t.prodOrder...)
}

// Sig is a cheap structural signature of a topology, used to verify that a
// recompiled image is equivalent to the one a snapshot was taken against.
type Sig struct {
	Nodes    uint32 `json:"nodes"`
	TwoInput int    `json:"twoInput"`
	Prods    int    `json:"prods"`
}

// Signature summarizes the topology's shape.
func (t *Topology) Signature() Sig {
	return Sig{Nodes: uint32(t.nextID), TwoInput: t.nTwoInput, Prods: len(t.prodOrder)}
}

func (s Sig) String() string {
	return fmt.Sprintf("nodes=%d twoInput=%d prods=%d", s.Nodes, s.TwoInput, s.Prods)
}

// Freeze hands the network's graph and its tables over as an immutable base
// and returns it for sharing; the network must not be used afterwards. The
// caller must be quiescent. Layers do not stack, so a network that already
// runs over a base cannot freeze.
func (nw *Network) Freeze() *Topology {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.base.nextID != 0 {
		panic("rete: Freeze on a network that already has a base")
	}
	top := nw.base
	top.layer, top.tab, top.reg = nw.own, nw.Tab, nw.Reg
	return top
}

// NewFromTopology builds a session Network over a shared base: fresh token
// tables and unlink counters sized for the base's node IDs, and its own
// copies of the base's symbol table and class registry, which keep every
// number the base's node tests hold. Nothing is compiled. The session-level
// option, Unlink, comes from opts; structural options are fixed by the
// topology and taken from it.
func NewFromTopology(top *Topology, cs ConflictListener, opts Options) *Network {
	o := top.opts
	o.Unlink = opts.Unlink
	return newNetwork(top, top.tab.Clone(), top.reg.Clone(), cs, o)
}

// newNetwork builds a network over top that interns into tab and extends reg.
func newNetwork(top *Topology, tab *value.Table, reg *wme.Registry, cs ConflictListener, opts Options) *Network {
	nw := &Network{
		Tab:  tab,
		Reg:  reg,
		Mem:  newMem(hashLines),
		Opts: opts,
		CS:   cs,
		base: top,
		own:  newLayer(top.nextID),
	}
	nw.Mem.nc.grow(int(top.nextID) + 1)
	return nw
}

// inBase reports whether a node ID belongs to the shared base, whose nodes
// must not be mutated. The base of an owned network is empty, so no ID is.
func (nw *Network) inBase(id NodeID) bool { return id <= nw.base.nextID }

// childrenOf returns the children of n (nil = the dummy top): n's own list —
// the base's, when n is a base node — followed by what the own layer spliced
// under it. The list is returned as-is, not copied, when only one side has
// any (callers hold nw.mu or are quiescent).
func (nw *Network) childrenOf(n *BetaNode) []*BetaNode {
	kids, spliced := nw.base.topNodes, nw.own.topNodes
	if n != nil {
		kids, spliced = n.children, nw.own.betaKids[n.ID]
	}
	if len(spliced) == 0 {
		return kids
	}
	if len(kids) == 0 {
		return spliced
	}
	out := make([]*BetaNode, 0, len(kids)+len(spliced))
	return append(append(out, kids...), spliced...)
}

// OwnProductions returns the productions in the network's own layer — for a
// session over a shared base, its run-time chunks — in addition order.
func (nw *Network) OwnProductions() []*Production {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return append([]*Production(nil), nw.own.prodOrder...)
}
