package rete

import (
	"fmt"
	"sort"
	"strings"
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
// would reach Options.BilinearDepth two-input nodes — and combines their
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

// ParseOrganization maps the -bilinear flag values: off (linear), all
// (every applicable production restructures, Fig 6-8's fixed shape), auto
// (deterministic per-production victim selection + balanced pair trees).
func ParseOrganization(s string) (Organization, error) {
	switch s {
	case "off", "linear", "":
		return Linear, nil
	case "all", "bilinear":
		return Bilinear, nil
	case "auto":
		return BilinearAuto, nil
	}
	return Linear, fmt.Errorf("rete: unknown bilinear mode %q (want off, all, or auto)", s)
}

// Options configure network construction.
type Options struct {
	// ShareBeta enables two-input-node sharing (the paper measures a
	// 20-30% loss without it; Table 5-2 uses this toggle).
	ShareBeta bool
	// HashLines is the number of lines in the global token tables.
	HashLines int
	// Organization selects Linear or Bilinear network shape.
	Organization Organization
	// ContextCEs is the length of the shared context prefix for Bilinear.
	ContextCEs int
	// GroupCEs is the sub-chain group size for Bilinear.
	GroupCEs int
	// BilinearDepth is BilinearAuto's victim threshold: a production whose
	// linear join chain would reach this many two-input nodes is
	// restructured; shorter chains stay linear. 0 means 16 (the cypress
	// 20-32-CE productions qualify, the hand tasks' short rules don't).
	// Selection is structural — it depends only on the production source
	// and these options — so it hashes into the program identity and every
	// session sharing a compiled image agrees on it.
	BilinearDepth int
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
	return Options{ShareBeta: true, HashLines: 1024, ContextCEs: 2, GroupCEs: 4, BilinearDepth: 16, Unlink: true}
}

// EffBilinearDepth resolves the zero-value default of BilinearDepth.
func (o Options) EffBilinearDepth() int {
	if o.BilinearDepth <= 0 {
		return 16
	}
	return o.BilinearDepth
}

// ConflictListener receives instantiation insertions and retractions from
// P nodes. Implementations must be safe for concurrent use.
type ConflictListener interface {
	Insert(p *Production, t *Token)
	Retract(p *Production, t *Token)
}

// NetStats aggregates match-work counters across all workers.
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

// Network is one session's view of a Rete network: a compiled topology —
// privately owned while unfrozen, shared read-only across sessions once
// frozen — plus this session's mutable match state (token tables, unlink
// counters, conflict set) and, for sessions that chunk against a frozen
// topology, a private copy-on-write suffix overlay. Construction and
// production addition are serialized (Soar adds chunks only at quiescence);
// task execution is fully parallel.
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

	mu  sync.Mutex // guards construction state (topology while unfrozen, suffix always)
	top *Topology
	sfx *suffix // lazily created CoW overlay; nil until this session chunks
}

// NewNetwork creates an empty network owning a fresh (unfrozen) topology.
func NewNetwork(tab *value.Table, reg *wme.Registry, cs ConflictListener, opts Options) *Network {
	if opts.HashLines <= 0 {
		opts.HashLines = 1024
	}
	return &Network{
		Tab:  tab,
		Reg:  reg,
		Mem:  NewMem(opts.HashLines),
		Opts: opts,
		CS:   cs,
		top: &Topology{
			tab:       tab,
			reg:       reg,
			opts:      opts,
			roots:     make(map[value.Sym]*AlphaNode),
			alphaMems: make(map[string]*AlphaMem),
			prods:     make(map[string]*Production),
		},
	}
}

// newID hands out the next monotone node ID (callers hold nw.mu). Once the
// topology is frozen, IDs continue from its maximum on the session-private
// suffix: IDs only index this session's own state vectors, so two sessions
// assigning the same suffix ID never interfere.
func (nw *Network) newID() NodeID {
	if nw.top.frozen {
		sfx := nw.sfxOf()
		sfx.nextID++
		return sfx.nextID
	}
	nw.top.nextID++
	return nw.top.nextID
}

// MaxNodeID returns the largest node ID assigned so far (shared or suffix).
func (nw *Network) MaxNodeID() NodeID {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.sfx != nil {
		return nw.sfx.nextID
	}
	return nw.top.nextID
}

// TwoInputNodes returns the number of two-input nodes in the network.
func (nw *Network) TwoInputNodes() int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	n := nw.top.nTwoInput
	if nw.sfx != nil {
		n += nw.sfx.nTwoInput
	}
	return n
}

// Productions returns the compiled productions in definition order: the
// shared (base) productions followed by this session's suffix.
func (nw *Network) Productions() []*Production {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	out := append([]*Production(nil), nw.top.prodOrder...)
	if nw.sfx != nil {
		out = append(out, nw.sfx.prodOrder...)
	}
	return out
}

// Lookup returns a compiled production by name.
func (nw *Network) Lookup(name string) *Production {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if p := nw.top.prods[name]; p != nil {
		return p
	}
	if nw.sfx != nil {
		return nw.sfx.prods[name]
	}
	return nil
}

// ---- alpha network ----

// alphaKey builds the canonical sharing key for a test path.
func alphaKey(class value.Sym, tests []AlphaTest) string {
	var b strings.Builder
	fmt.Fprintf(&b, "c%d", class)
	for _, t := range tests {
		if t.Disj != nil {
			fmt.Fprintf(&b, "|f%d in", t.Field)
			for _, d := range t.Disj {
				fmt.Fprintf(&b, " %v", d)
			}
			continue
		}
		if t.VsField {
			fmt.Fprintf(&b, "|f%d %v f%d", t.Field, t.Pred, t.Other)
			continue
		}
		fmt.Fprintf(&b, "|f%d %v %v", t.Field, t.Pred, t.Val)
	}
	return b.String()
}

// sortAlphaTests puts tests in canonical order to maximize path sharing.
func sortAlphaTests(tests []AlphaTest) {
	sort.SliceStable(tests, func(i, j int) bool {
		a, b := tests[i], tests[j]
		if a.Field != b.Field {
			return a.Field < b.Field
		}
		if a.VsField != b.VsField {
			return !a.VsField
		}
		if a.Pred != b.Pred {
			return a.Pred < b.Pred
		}
		return false
	})
}

// buildAlpha returns (creating as needed) the alpha memory for a class and
// test sequence. Constant-test nodes are shared by path prefix; memories by
// full path. Against a frozen topology the shared trees are traversed
// read-only and anything missing is created in the session suffix (callers
// hold nw.mu).
func (nw *Network) buildAlpha(class value.Sym, tests []AlphaTest) *AlphaMem {
	sortAlphaTests(tests)
	key := alphaKey(class, tests)
	if am, ok := nw.top.alphaMems[key]; ok {
		return am
	}
	if nw.top.frozen {
		return nw.buildAlphaSuffix(class, tests, key)
	}
	root := nw.top.roots[class]
	if root == nil {
		root = &AlphaNode{ID: nw.newID()}
		nw.top.roots[class] = root
	}
	cur := root
	for _, t := range tests {
		var next *AlphaNode
		for _, c := range cur.Children {
			if c.Test.equalTest(t) {
				next = c
				break
			}
		}
		if next == nil {
			next = &AlphaNode{ID: nw.newID(), Test: t}
			cur.Children = append(cur.Children, next)
			cur.indexChild(next)
		}
		cur = next
	}
	if cur.Mem == nil {
		cur.Mem = &AlphaMem{ID: nw.newID(), key: key}
	}
	am := cur.Mem
	nw.top.alphaMems[key] = am
	return am
}

// InjectFn receives the right activations produced by an alpha-network
// walk: one per (two-input node, wme) whose alpha path passed.
type InjectFn func(n *BetaNode, w *wme.WME, op wme.Op)

// Inject runs one wme change through the constant-test network, calling
// emit for every destination two-input node. The alpha network is executed
// inline (one-input nodes are cheap; the tasks PSM-E schedules are the
// two-input activations — paper §2.2/§2.3).
func (nw *Network) Inject(d wme.Delta, emit InjectFn) {
	if root := nw.top.roots[d.WME.Class]; root != nil {
		nw.walkAlpha(root, d, emit)
	} else if sfx := nw.sfx; sfx != nil {
		if root := sfx.roots[d.WME.Class]; root != nil {
			nw.walkAlpha(root, d, emit)
		}
	}
}

func (nw *Network) walkAlpha(n *AlphaNode, d wme.Delta, emit InjectFn) {
	if n.Mem != nil {
		for _, succ := range n.Mem.Succs {
			emit(succ, d.WME, d.Op)
		}
		if sfx := nw.sfx; sfx != nil {
			// Private suffix joins taking right input from this shared
			// memory (a private memory's successors live in Succs above).
			for _, succ := range sfx.alphaSuccs[n.Mem.ID] {
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
			nw.walkAlpha(c, d, emit)
		} else {
			nw.Stats.AlphaMisses.Add(1)
		}
	}
	for _, c := range n.linear {
		nw.Stats.ConstTests.Add(1)
		if c.Test.matches(d.WME.Field) {
			nw.walkAlpha(c, d, emit)
		}
	}
	if sfx := nw.sfx; sfx != nil && nw.sharedID(n.ID) {
		// Copy-on-write overlay of a frozen prefix node: a private memory
		// spliced at a shared interior node, and private constant-test
		// children (scanned linearly — suffix fanout is chunk-sized).
		if am := sfx.alphaMemAt[n.ID]; am != nil {
			for _, succ := range am.Succs {
				emit(succ, d.WME, d.Op)
			}
		}
		for _, c := range sfx.alphaKids[n.ID] {
			nw.Stats.ConstTests.Add(1)
			if c.Test.matches(d.WME.Field) {
				nw.walkAlpha(c, d, emit)
			}
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
	nw.Mem = NewMem(nw.Opts.HashLines)
	// The fresh table starts with zeroed unlink counters, which is exactly
	// right (no live entries); size them for the existing nodes so the
	// replay can maintain them without reallocation.
	nw.Mem.GrowCounts(int(nw.MaxNodeID()) + 1)
	nw.Prof.Grow(int(nw.MaxNodeID()) + 1)
}

// WalkBeta visits every beta node reachable from the top, once — shared
// prefix and session suffix both.
func (nw *Network) WalkBeta(fn func(*BetaNode)) {
	nw.mu.Lock()
	tops := nw.topsOf()
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
		if n.Partner != nil && n.Kind == KindNCC {
			rec(n.Partner)
		}
	}
	for _, t := range tops {
		rec(t)
	}
}
