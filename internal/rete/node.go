package rete

import (
	"fmt"

	"soarpsme/internal/ops5"
	"soarpsme/internal/value"
)

// NodeID identifies a node. IDs are assigned monotonically as nodes are
// created, which is what the run-time update algorithm relies on: a node
// added after another always has a larger ID, and once a production loses
// sharing all of its descendants are new, so "ID >= firstNewID" exactly
// selects the nodes whose state must be built (paper §5.2).
type NodeID uint32

// alphaTest is one test in the constant-test network: field PRED constant,
// or field PRED otherField for intra-CE variable consistency.
type alphaTest struct {
	field   int
	pred    value.Pred
	val     value.Value
	vsField bool // compare against field other instead of val
	other   int
	disj    []value.Value // non-nil: membership test (<< ... >>)
}

// matches applies the test to a wme (by field extraction).
func (t alphaTest) matches(get func(int) value.Value) bool {
	a := get(t.field)
	if t.disj != nil {
		for _, d := range t.disj {
			if a.Equal(d) {
				return true
			}
		}
		return false
	}
	b := t.val
	if t.vsField {
		b = get(t.other)
	}
	return t.pred.Apply(a, b)
}

// equalTest reports structural equality, used for alpha-network sharing.
func (t alphaTest) equalTest(o alphaTest) bool {
	if t.field != o.field || t.pred != o.pred || t.vsField != o.vsField || t.other != o.other {
		return false
	}
	if (t.disj == nil) != (o.disj == nil) {
		return false
	}
	if t.disj != nil {
		if len(t.disj) != len(o.disj) {
			return false
		}
		for i := range t.disj {
			if t.disj[i] != o.disj[i] {
				return false
			}
		}
		return true
	}
	return t.val == o.val
}

// alphaNode is one constant-test node. The alpha network is a tree per wme
// class; each node may have further test children and/or a terminal memory.
type alphaNode struct {
	id       NodeID
	test     alphaTest
	children []*alphaNode
	mem      *alphaMem
	parent   *alphaNode // nil for a class root

	// Hashed dispatch index, maintained incrementally by buildAlpha as
	// children are spliced in: eqKids maps (field, constant) to the child
	// performing that plain equality test, so a wme delta jumps straight
	// to the matching subtree; eqFields lists the distinct fields probed
	// (one map lookup each); linear holds the remaining children —
	// non-equality predicates, disjunctions, field-vs-field comparisons
	// and numeric constants (OPS5 equality coerces 3 = 3.0 across
	// int/float, which a map key cannot express) — still scanned in order.
	// children remains the complete list for sharing scans and printing.
	eqKids   map[alphaEqKey]*alphaNode
	eqFields []int
	linear   []*alphaNode
}

// alphaEqKey is the hashed-dispatch key: which field, equal to what.
type alphaEqKey struct {
	field int
	val   value.Value
}

// hashableEq reports whether t can live in the eqKids index: a plain
// equality against a symbol or nil constant. Symbol equality is identity,
// so Value's == (the map's equality) coincides with OPS5 equality.
func (t alphaTest) hashableEq() bool {
	return t.disj == nil && !t.vsField && t.pred == value.PredEq &&
		(t.val.Kind == value.KindSym || t.val.Kind == value.KindNil)
}

// indexChild registers a newly spliced child in the dispatch structures.
func (n *alphaNode) indexChild(c *alphaNode) {
	if !c.test.hashableEq() {
		n.linear = append(n.linear, c)
		return
	}
	if n.eqKids == nil {
		n.eqKids = make(map[alphaEqKey]*alphaNode)
	}
	n.eqKids[alphaEqKey{field: c.test.field, val: c.test.val}] = c
	for _, f := range n.eqFields {
		if f == c.test.field {
			return
		}
	}
	n.eqFields = append(n.eqFields, c.test.field)
}

// alphaMem is the terminus of an alpha path. It does not store wmes itself:
// per the PSM-E hashed-memory design, right state lives in the global right
// hash table keyed by destination two-input node. The memory's job is to
// fan a passing wme out to its destination join/not nodes as right
// activations.
type alphaMem struct {
	id    NodeID
	succs []*BetaNode // two-input nodes taking right input here, in ID order
	at    *alphaNode  // the terminal test node it hangs at
}

// BetaKind discriminates the beta-network node types.
type BetaKind uint8

// The beta node kinds. KindJoin is the paper's "and" node, KindNot its
// "not" node; KindNCC/KindNCCPartner implement Soar conjunctive negations;
// KindJoinBB is the beta×beta join used by bilinear networks; KindP is a
// production node.
const (
	KindJoin BetaKind = iota
	KindNot
	KindNCC
	KindNCCPartner
	KindJoinBB
	KindP
)

func (k BetaKind) String() string {
	switch k {
	case KindJoin:
		return "and"
	case KindNot:
		return "not"
	case KindNCC:
		return "ncc"
	case KindNCCPartner:
		return "ncc-partner"
	case KindJoinBB:
		return "and-bb"
	case KindP:
		return "p"
	}
	return "?"
}

// MarshalText and UnmarshalText put a kind into JSON (flight dumps) by name.
func (k BetaKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

func (k *BetaKind) UnmarshalText(b []byte) error {
	for c := KindJoin; c <= KindP; c++ {
		if c.String() == string(b) {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("rete: unknown node kind %q", b)
}

// JoinTest compares a field of the right input against a wme already bound
// in the left token. Eq tests double as the hash key (paper §6.1).
type JoinTest struct {
	rightField int
	leftCE     int // positive-CE index in the left token
	leftField  int
	Pred       value.Pred
}

// BBTest compares bindings across the two beta inputs of a bilinear join.
type BBTest struct {
	leftCE, leftField   int
	rightCE, rightField int
	pred                value.Pred
}

// BetaNode is a two-input node (join/not/NCC/bilinear) or a P node.
type BetaNode struct {
	ID     NodeID
	Kind   BetaKind
	parent *BetaNode // left input; nil = dummy top
	alpha  *alphaMem // right input (KindJoin, KindNot)

	// rightCE is the positive-CE index contributed by this node's right
	// input (KindJoin only; negations contribute no wme).
	rightCE int

	Tests   []JoinTest // join/not: equality+residual tests
	BBTests []BBTest   // bilinear joins

	// rightParent is the left input of the right side for KindJoinBB.
	rightParent *BetaNode

	children []*BetaNode

	// NCC wiring: an NCC node and its partner reference each other.
	partner *BetaNode

	// branchN is the wme count of main-line tokens at the branch point:
	// for NCC nodes/partners the owner depth, for bilinear joins the
	// shared-context depth.
	branchN int

	// prod is set for P nodes.
	prod *Production

	// nEqTests counts the leading equality tests that form the hash key.
	nEqTests int

	// private marks nodes that must never be shared into by later
	// productions (NCC sub-chains, bilinear structures); the state-dump of
	// the update algorithm relies on shared parents having only
	// left-storing children.
	private bool

	// shared marks nodes reachable from >1 production (statistics).
	refs int
}

// Production is a compiled production: the AST plus the variable binding
// map the RHS evaluator and chunker need, and its P node.
type Production struct {
	Name string
	AST  *ops5.Production
	// Bindings maps each LHS variable to the (positive-CE index, field)
	// of its first bound (equality, positive-CE) occurrence.
	Bindings map[value.Sym]Binding
	// Restructured marks productions the bilinear pass compiled into the
	// context+group shape (Organization Bilinear, or BilinearAuto when the
	// linear chain would reach BilinearDepth).
	Restructured bool
	PNode        *BetaNode
	// ActionCE maps 0-based LHS positions to token CE tags (-1 for
	// negated/NCC items); remove/modify actions index through it.
	ActionCE []int
	// ElemCE maps OPS5 element variables ({ <w> (ce) }) to token CE tags.
	ElemCE map[value.Sym]int
}

// Binding locates a variable's binding site.
type Binding struct {
	CE    int
	Field int
}

// ChainDepth is the longest top-to-P path of two-input nodes in the
// production's network: the bound on the dependent activation chain it can
// generate (the P node itself is not counted). Pair joins take the deeper of
// their two inputs, and an NCC node the deeper of its own chain and its
// partner's sub-chain.
func (p *Production) ChainDepth() int { return chainDepth(p.PNode) }

func chainDepth(n *BetaNode) int {
	if n == nil {
		return 0
	}
	d := chainDepth(n.parent)
	if n.Kind == KindJoinBB {
		d = max(d, chainDepth(n.rightParent))
	}
	if n.Kind == KindNCC && n.partner != nil {
		d = max(d, chainDepth(n.partner.parent))
	}
	if n.Kind == KindP {
		return d
	}
	return d + 1
}

// Owners attributes every beta node to one production: owner[id] indexes
// prods (the productions in definition order) at the first production whose
// spine contains node id, or is -1 for an ID no spine claims. A spine is the
// P node and everything above it through parent — and, at a bilinear pair
// join, rightParent too: the group sub-chains are real two-input nodes, which
// a parent-only walk would leave unowned. First owner wins, so the cost of a
// shared prefix is counted once; NCC partner sub-chains stay unclaimed.
func (nw *Network) Owners() (prods []*Production, owner []int32) {
	prods = nw.Productions()
	owner = make([]int32, nw.MaxNodeID()+1)
	for i := range owner {
		owner[i] = -1
	}
	var claim func(n *BetaNode, p int32)
	claim = func(n *BetaNode, p int32) {
		if n == nil {
			return
		}
		if owner[n.ID] < 0 {
			owner[n.ID] = p
		}
		claim(n.parent, p)
		if n.Kind == KindJoinBB {
			claim(n.rightParent, p)
		}
	}
	for i, p := range prods {
		claim(p.PNode, int32(i))
	}
	return prods, owner
}

// String renders a short description of the node.
func (n *BetaNode) String() string {
	if n == nil {
		return "<top>"
	}
	if n.Kind == KindP {
		return fmt.Sprintf("p#%d(%s)", n.ID, n.prod.Name)
	}
	return fmt.Sprintf("%s#%d", n.Kind, n.ID)
}

// keySeed starts every node hash key, so a node without equality tests keys
// every token and wme to keySeed: its whole memory shares one line.
const keySeed uint64 = 0x8f1b5c37a9e3d421

// leftKeyFromToken hashes the left-side join-variable bindings of t for
// this node's hash key (the leading equality tests).
func (n *BetaNode) leftKeyFromToken(t *Token) uint64 {
	h := keySeed
	for i := 0; i < n.nEqTests; i++ {
		jt := n.Tests[i]
		w := t.WMEAt(jt.leftCE)
		var v value.Value
		if w != nil {
			v = w.Field(jt.leftField)
		}
		h = h*0x100000001b3 ^ v.Hash()
	}
	return h
}

// rightKeyFromWME hashes the right-side join-variable values of w.
func (n *BetaNode) rightKeyFromWME(w interface{ Field(int) value.Value }) uint64 {
	h := keySeed
	for i := 0; i < n.nEqTests; i++ {
		jt := n.Tests[i]
		h = h*0x100000001b3 ^ w.Field(jt.rightField).Hash()
	}
	return h
}

// bbLeftKey / bbRightKey hash the shared-variable bindings for a bilinear
// join's two beta inputs.
func (n *BetaNode) bbLeftKey(t *Token) uint64 {
	h := keySeed
	for i := 0; i < n.nEqTests; i++ {
		bt := n.BBTests[i]
		var v value.Value
		if w := t.WMEAt(bt.leftCE); w != nil {
			v = w.Field(bt.leftField)
		}
		h = h*0x100000001b3 ^ v.Hash()
	}
	return h
}

func (n *BetaNode) bbRightKey(t *Token) uint64 {
	h := keySeed
	for i := 0; i < n.nEqTests; i++ {
		bt := n.BBTests[i]
		var v value.Value
		if w := t.WMEAt(bt.rightCE); w != nil {
			v = w.Field(bt.rightField)
		}
		h = h*0x100000001b3 ^ v.Hash()
	}
	return h
}

// testPair applies every join test to (left token, right wme), returning
// the number of comparisons performed for cost accounting.
func (n *BetaNode) testPair(t *Token, w interface{ Field(int) value.Value }) (ok bool, comparisons int) {
	for _, jt := range n.Tests {
		comparisons++
		lw := t.WMEAt(jt.leftCE)
		var lv value.Value
		if lw != nil {
			lv = lw.Field(jt.leftField)
		}
		if !jt.Pred.Apply(w.Field(jt.rightField), lv) {
			return false, comparisons
		}
	}
	return true, comparisons
}

// testBBPair applies bilinear tests to a pair of beta tokens.
func (n *BetaNode) testBBPair(l, r *Token) (ok bool, comparisons int) {
	for _, bt := range n.BBTests {
		comparisons++
		var lv, rv value.Value
		if w := l.WMEAt(bt.leftCE); w != nil {
			lv = w.Field(bt.leftField)
		}
		if w := r.WMEAt(bt.rightCE); w != nil {
			rv = w.Field(bt.rightField)
		}
		if !bt.pred.Apply(rv, lv) {
			return false, comparisons
		}
	}
	return true, comparisons
}
