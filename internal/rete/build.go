package rete

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"soarpsme/internal/ops5"
	"soarpsme/internal/value"
)

// AddInfo describes what a production addition created; the run-time
// state-update algorithm (paper §5.2) consumes it.
type AddInfo struct {
	Prod *Production
	// NewBeta lists the beta nodes created (not reused) for this
	// production, in creation order.
	NewBeta []*BetaNode
	// FirstNewID is the smallest new node ID: the state update activates
	// only nodes at or above it.
	FirstNewID NodeID
	// Boundary lists the new nodes whose parent (left or right input) is a
	// pre-existing shared node: the "first new node" positions whose left
	// state must be seeded from the last shared node's stored PIs.
	Boundary []*BetaNode
	// SharedTwoInput counts reused two-input nodes (sharing statistics).
	SharedTwoInput int
	// updPath holds, sorted, the IDs of the alpha memories feeding a new
	// join or not node and of every test node on the path down to them: the
	// part of the alpha network the state update walks (InjectUpdate). It is
	// a slice, not a set, because an engine keeps every AddInfo for the
	// session's life: about 31 IDs for a learned chunk, 124 bytes.
	updPath []NodeID
	// SpliceTime is the wall-clock duration of the network surgery itself
	// (node creation plus jumptable-style successor splicing), excluding
	// the caller's state-update cycle.
	SpliceTime time.Duration
}

// builder carries per-production compilation state.
type builder struct {
	nw       *Network
	ast      *ops5.Production
	bindings map[value.Sym]Binding
	negVars  map[value.Sym]bool
	ceTag    int
	posCount int
	shared   bool
	private  bool // creating NCC-sub or bilinear nodes: never share into
	info     *AddInfo

	// lastReused is the deepest existing node this build shared into. Sharing
	// stops for good at the first node that is not reused, so the nodes it
	// took a reference on are that one and its ancestors (see rollback).
	lastReused *BetaNode
}

// AddProduction compiles ast into the network's own layer, sharing nodes
// with existing productions where Options.ShareBeta allows; base nodes are
// reused read-only, never mutated. It is all-or-nothing: a production that
// is rejected leaves the network as it was. The caller must be quiescent
// (no match tasks in flight). The returned AddInfo seeds the state update.
func (nw *Network) AddProduction(ast *ops5.Production) (_ *Production, _ *AddInfo, err error) {
	start := time.Now()
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.base.prods[ast.Name] != nil || nw.own.prods[ast.Name] != nil {
		return nil, nil, fmt.Errorf("rete: production %q already defined", ast.Name)
	}
	b := &builder{
		nw:       nw,
		ast:      ast,
		bindings: make(map[value.Sym]Binding),
		negVars:  make(map[value.Sym]bool),
		shared:   true,
		info:     &AddInfo{},
	}
	own := &nw.own
	defer func(nextID NodeID, nTwoInput int, unspliced bool) {
		if err != nil {
			b.rollback(nextID, nTwoInput, unspliced)
		}
	}(own.nextID, own.nTwoInput, own.betaKids == nil)
	var bottom *BetaNode
	restructured := b.useBilinear()
	if restructured {
		bottom, err = b.buildBilinear()
	} else {
		bottom, err = b.buildLinear()
	}
	if err != nil {
		return nil, nil, err
	}
	prod := &Production{
		Name:         ast.Name,
		AST:          ast,
		Bindings:     b.bindings,
		NumCEs:       b.posCount,
		Restructured: restructured,
	}
	if err := checkRHS(prod, nw); err != nil {
		return nil, nil, err
	}
	pn := b.newNode(&BetaNode{Kind: KindP, Parent: bottom, Prod: prod})
	b.attach(bottom, pn)
	prod.PNode = pn
	own.prods[ast.Name] = prod
	own.prodOrder = append(own.prodOrder, prod)

	b.info.Prod = prod
	b.finishInfo()
	// Size the unlink counters for the new node IDs while still quiescent
	// (match workers read them with atomics and never reallocate).
	nw.Mem.GrowCounts(int(own.nextID) + 1)
	nw.Prof.Grow(int(own.nextID) + 1)
	b.info.SpliceTime = time.Since(start)
	return prod, b.info, nil
}

// rollback removes everything a rejected production built: its beta nodes are
// detached from their parents and alpha memories exactly as excise would,
// newest first; the alpha nodes and memories created since nextID are
// dropped; and the references it took on the nodes it shared into are
// returned. Nothing has run through the new nodes (the caller is quiescent),
// so there is no match state to purge and their IDs can be handed out again.
// If the build made the splice maps (unspliced: they were nil before it), they
// go back to nil, so the hot paths keep their one nil test (see layer.spliced).
func (b *builder) rollback(nextID NodeID, nTwoInput int, unspliced bool) {
	nw := b.nw
	for i := len(b.info.NewBeta) - 1; i >= 0; i-- {
		nw.detach(b.info.NewBeta[i])
	}
	nw.pruneAlpha(nextID)
	for n := b.lastReused; n != nil && !nw.inBase(n.ID); n = n.Parent {
		n.refs--
	}
	own := &nw.own
	own.nextID, own.nTwoInput = nextID, nTwoInput
	if unspliced {
		own.alphaKids, own.alphaMemAt, own.alphaSuccs, own.betaKids = nil, nil, nil, nil
	}
}

// finishInfo computes FirstNewID, the boundary set and the update paths.
func (b *builder) finishInfo() {
	inf := b.info
	if len(inf.NewBeta) == 0 {
		return
	}
	inf.FirstNewID = inf.NewBeta[0].ID
	for _, n := range inf.NewBeta {
		if n.ID < inf.FirstNewID {
			inf.FirstNewID = n.ID
		}
	}
	isNew := func(n *BetaNode) bool { return n != nil && n.ID >= inf.FirstNewID }
	for _, n := range inf.NewBeta {
		leftOld := n.Parent == nil || !isNew(n.Parent)
		rightOld := n.Kind == KindJoinBB && !isNew(n.RightParent)
		if leftOld || rightOld {
			inf.Boundary = append(inf.Boundary, n)
		}
		if am := n.Alpha; am != nil {
			inf.updPath = append(inf.updPath, am.ID)
			for a := am.at; a != nil; a = a.parent {
				inf.updPath = append(inf.updPath, a.ID)
			}
		}
	}
	slices.Sort(inf.updPath)
	inf.updPath = slices.Clip(slices.Compact(inf.updPath))
}

// onUpdatePath reports whether the state update walks alpha node or memory
// id (see updPath).
func (inf *AddInfo) onUpdatePath(id NodeID) bool {
	_, ok := slices.BinarySearch(inf.updPath, id)
	return ok
}

// newNode registers a freshly created beta node.
func (b *builder) newNode(n *BetaNode) *BetaNode {
	n.ID = b.nw.newID()
	n.refs = 1
	if n.Kind != KindP {
		b.nw.own.nTwoInput++
	}
	b.info.NewBeta = append(b.info.NewBeta, n)
	b.shared = false
	return n
}

// attach wires child under parent (or as a top node). A base parent's child
// list is never touched: the child goes into the own layer's betaKids splice
// map instead — the jumptable splice.
func (b *builder) attach(parent, child *BetaNode) {
	own := &b.nw.own
	switch {
	case parent == nil:
		own.topNodes = append(own.topNodes, child)
	case b.nw.inBase(parent.ID):
		kids := own.spliced().betaKids
		kids[parent.ID] = append(kids[parent.ID], child)
	default:
		parent.Children = append(parent.Children, child)
	}
}

// ---- linear organization ----

func (b *builder) buildLinear() (*BetaNode, error) {
	var cur *BetaNode
	for _, ci := range b.ast.LHS {
		var err error
		switch ci.Kind {
		case ops5.CondPos:
			cur, err = b.addPositive(cur, ci.CE)
		case ops5.CondNeg:
			cur, err = b.addNegative(cur, ci.CE)
		case ops5.CondNCC:
			cur, err = b.addNCC(cur, ci.Sub)
		}
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// addPositive compiles one positive CE: alpha path + join node.
func (b *builder) addPositive(cur *BetaNode, ce *ops5.CE) (*BetaNode, error) {
	tag := b.ceTag
	alphaTests, joinTests, newBinds, err := b.compileCE(ce, tag, b.bindings, true)
	if err != nil {
		return nil, err
	}
	am := b.nw.buildAlpha(ce.Class, alphaTests)
	node := b.joinChild(cur, KindJoin, am, joinTests, tag)
	for v, bd := range newBinds {
		b.bindings[v] = bd
	}
	b.ceTag++
	b.posCount++
	return node, nil
}

// addNegative compiles one negated CE as a not node.
func (b *builder) addNegative(cur *BetaNode, ce *ops5.CE) (*BetaNode, error) {
	if cur == nil {
		return nil, fmt.Errorf("rete: production %s: first condition cannot be negative", b.ast.Name)
	}
	alphaTests, joinTests, _, err := b.compileCE(ce, -1, b.bindings, false)
	if err != nil {
		return nil, err
	}
	am := b.nw.buildAlpha(ce.Class, alphaTests)
	return b.joinChild(cur, KindNot, am, joinTests, -1), nil
}

// addNCC compiles a conjunctive negation: a positive sub-chain hanging off
// cur, terminated by a partner node paired with an NCC node on the main
// line. NCC structures are never shared.
func (b *builder) addNCC(cur *BetaNode, sub []*ops5.CE) (*BetaNode, error) {
	if cur == nil {
		return nil, fmt.Errorf("rete: production %s: conjunctive negation cannot be first", b.ast.Name)
	}
	b.shared = false // NCC pairs are private to their production
	b.private = true
	defer func() { b.private = false }()
	branchN := b.posCount
	// Sub-chain bindings extend the outer bindings but are locally scoped.
	local := make(map[value.Sym]Binding, len(b.bindings))
	for k, v := range b.bindings {
		local[k] = v
	}
	subCur := cur
	for _, ce := range sub {
		tag := b.ceTag
		alphaTests, joinTests, newBinds, err := b.compileCE(ce, tag, local, true)
		if err != nil {
			return nil, err
		}
		am := b.nw.buildAlpha(ce.Class, alphaTests)
		subCur = b.joinChild(subCur, KindJoin, am, joinTests, tag)
		for v, bd := range newBinds {
			local[v] = bd
		}
		b.ceTag++
	}
	ncc := b.newNode(&BetaNode{Kind: KindNCC, Parent: cur, BranchN: branchN, private: true})
	partner := b.newNode(&BetaNode{Kind: KindNCCPartner, Parent: subCur, BranchN: branchN, private: true})
	ncc.Partner = partner
	partner.Partner = ncc
	b.attach(subCur, partner)
	b.attach(cur, ncc)
	return ncc, nil
}

// joinChild finds or creates a join/not child of cur for the given right
// input and tests.
func (b *builder) joinChild(cur *BetaNode, kind BetaKind, am *AlphaMem, tests []JoinTest, rightCE int) *BetaNode {
	nEq := canonicalizeTests(tests)
	if b.nw.Opts.LinearMemories {
		nEq = 0 // no hash discrimination: scan the whole node memory
	}
	if b.shared && b.nw.Opts.ShareBeta {
		for _, s := range b.nw.childrenOf(cur) {
			if !s.private && s.Kind == kind && s.Alpha == am && s.RightCE == rightCE && sameTests(s.Tests, tests) {
				// Sharing into a base node reuses it without any mutation:
				// its refs stay as compiled (base nodes are permanent;
				// excise skips them).
				if !b.nw.inBase(s.ID) {
					s.refs++
				}
				b.lastReused = s
				b.info.SharedTwoInput++
				return s
			}
		}
	}
	n := b.newNode(&BetaNode{
		Kind:     kind,
		Parent:   cur,
		Alpha:    am,
		RightCE:  rightCE,
		Tests:    tests,
		nEqTests: nEq,
		private:  b.private,
	})
	if b.nw.inBase(am.ID) {
		succs := b.nw.own.spliced().alphaSuccs
		succs[am.ID] = append(succs[am.ID], n)
	} else {
		am.Succs = append(am.Succs, n)
	}
	b.attach(cur, n)
	return n
}

// canonicalizeTests orders equality tests first (they form the hash key)
// and returns the equality-test count.
func canonicalizeTests(tests []JoinTest) int {
	sort.SliceStable(tests, func(i, j int) bool {
		a, c := tests[i], tests[j]
		ae, ce := a.Pred == value.PredEq, c.Pred == value.PredEq
		if ae != ce {
			return ae
		}
		if a.LeftCE != c.LeftCE {
			return a.LeftCE < c.LeftCE
		}
		if a.LeftField != c.LeftField {
			return a.LeftField < c.LeftField
		}
		return a.RightField < c.RightField
	})
	n := 0
	for _, t := range tests {
		if t.Pred == value.PredEq {
			n++
		}
	}
	return n
}

func sameTests(a, c []JoinTest) bool {
	if len(a) != len(c) {
		return false
	}
	for i := range a {
		if a[i] != c[i] {
			return false
		}
	}
	return true
}

// compileCE splits a CE's attribute tests into alpha tests (constants,
// disjunctions, intra-CE variable consistency) and join tests (variables
// bound in earlier CEs). When bind is true, unbound equality variables bind
// to this CE (tag); otherwise they are local wildcards (negated CEs).
func (b *builder) compileCE(ce *ops5.CE, tag int, bindings map[value.Sym]Binding, bind bool) (alphaTests []AlphaTest, joinTests []JoinTest, newBinds map[value.Sym]Binding, err error) {
	newBinds = make(map[value.Sym]Binding)
	localFields := make(map[value.Sym]int) // var -> field within this CE
	for _, at := range ce.Tests {
		field, ok := b.nw.Reg.FieldIndex(ce.Class, at.Attr, true)
		if !ok {
			return nil, nil, nil, fmt.Errorf("rete: %s: unknown attribute", b.ast.Name)
		}
		for _, t := range at.Tests {
			switch t.Kind {
			case ops5.TestConst:
				alphaTests = append(alphaTests, AlphaTest{Field: field, Pred: t.Pred, Val: t.Val})
			case ops5.TestDisj:
				alphaTests = append(alphaTests, AlphaTest{Field: field, Disj: t.Disj})
			case ops5.TestVar:
				switch {
				case hasBinding(bindings, newBinds, t.Var):
					bd := getBinding(bindings, newBinds, t.Var)
					if bind && bd.CE == tag {
						// bound earlier in this same CE: intra-wme test
						alphaTests = append(alphaTests, AlphaTest{Field: field, Pred: t.Pred, VsField: true, Other: bd.Field})
					} else {
						joinTests = append(joinTests, JoinTest{RightField: field, LeftCE: bd.CE, LeftField: bd.Field, Pred: t.Pred})
					}
				case hasLocal(localFields, t.Var):
					alphaTests = append(alphaTests, AlphaTest{Field: field, Pred: t.Pred, VsField: true, Other: localFields[t.Var]})
				case t.Pred != value.PredEq:
					return nil, nil, nil, fmt.Errorf("rete: %s: predicate %v on unbound variable <%s>", b.ast.Name, t.Pred, b.nw.Tab.Name(t.Var))
				case bind:
					if b.negVars[t.Var] {
						return nil, nil, nil, fmt.Errorf("rete: %s: variable <%s> first bound in a negated condition", b.ast.Name, b.nw.Tab.Name(t.Var))
					}
					newBinds[t.Var] = Binding{CE: tag, Field: field}
					localFields[t.Var] = field
				default:
					// wildcard local to a negated CE
					b.negVars[t.Var] = true
					localFields[t.Var] = field
				}
			}
		}
	}
	return alphaTests, joinTests, newBinds, nil
}

func hasBinding(a, b map[value.Sym]Binding, v value.Sym) bool {
	if _, ok := a[v]; ok {
		return true
	}
	_, ok := b[v]
	return ok
}

func getBinding(a, b map[value.Sym]Binding, v value.Sym) Binding {
	if bd, ok := b[v]; ok {
		return bd
	}
	return a[v]
}

func hasLocal(m map[value.Sym]int, v value.Sym) bool {
	_, ok := m[v]
	return ok
}

// checkRHS validates action CE references and variable uses, and records
// the mapping from 1-based LHS positions to token CE tags.
func checkRHS(p *Production, nw *Network) error {
	ast := p.AST
	posTag := make([]int, len(ast.LHS)) // LHS index -> tag or -1
	elem := make(map[value.Sym]int)
	tag := 0
	for i, ci := range ast.LHS {
		switch ci.Kind {
		case ops5.CondPos:
			posTag[i] = tag
			if ci.ElemVar != 0 {
				if _, dup := elem[ci.ElemVar]; dup {
					return fmt.Errorf("rete: %s: element variable <%s> bound twice", p.Name, nw.Tab.Name(ci.ElemVar))
				}
				elem[ci.ElemVar] = tag
			}
			tag++
		case ops5.CondNCC:
			posTag[i] = -1
			tag += len(ci.Sub)
		default:
			posTag[i] = -1
		}
	}
	bound := make(map[value.Sym]bool, len(p.Bindings))
	for v := range p.Bindings {
		bound[v] = true
	}
	var checkExpr func(e *ops5.Expr) error
	checkExpr = func(e *ops5.Expr) error {
		if e == nil {
			return nil
		}
		if e.Kind == ops5.ExprVar && !bound[e.Var] {
			return fmt.Errorf("rete: %s: unbound variable <%s> in RHS", p.Name, nw.Tab.Name(e.Var))
		}
		if err := checkExpr(e.L); err != nil {
			return err
		}
		return checkExpr(e.R)
	}
	for _, a := range ast.RHS {
		switch a.Kind {
		case ops5.ActRemove, ops5.ActModify:
			if a.Elem != 0 {
				if _, ok := elem[a.Elem]; !ok {
					return fmt.Errorf("rete: %s: unbound element variable <%s>", p.Name, nw.Tab.Name(a.Elem))
				}
				break
			}
			if a.CE < 1 || a.CE > len(ast.LHS) {
				return fmt.Errorf("rete: %s: action references CE %d of %d", p.Name, a.CE, len(ast.LHS))
			}
			if posTag[a.CE-1] < 0 {
				return fmt.Errorf("rete: %s: action references negated CE %d", p.Name, a.CE)
			}
		case ops5.ActBind:
			if err := checkExpr(a.Expr); err != nil {
				return err
			}
			bound[a.Var] = true
		}
		for _, s := range a.Sets {
			if err := checkExpr(s.Expr); err != nil {
				return err
			}
		}
		for _, e := range a.Args {
			if err := checkExpr(e); err != nil {
				return err
			}
		}
	}
	p.ActionCE = posTag
	p.ElemCE = elem
	return nil
}

// ---- bilinear organization (paper Figure 6-8) ----

// useBilinear decides whether this production compiles into the
// constrained bilinear shape. Bilinear restructures every applicable
// production (the fixed Fig 6-8 organization, left-spine pair joins);
// BilinearAuto restructures only chain-depth victims — productions whose
// linear join chain would reach Options.BilinearDepth two-input nodes —
// and combines their groups with a balanced pair-join tree. The decision
// is purely structural (source + options), so runtime chunks added
// over a shared base make it identically on every session.
func (b *builder) useBilinear() bool {
	switch b.nw.Opts.Organization {
	case Bilinear:
		return b.bilinearApplicable()
	case BilinearAuto:
		return b.bilinearApplicable() && b.linearChainLen() >= b.nw.Opts.EffBilinearDepth()
	}
	return false
}

// linearChainLen counts the two-input nodes a linear build would create:
// one per positive or negated CE (NCCs are already excluded by
// bilinearApplicable, which gates every useBilinear call).
func (b *builder) linearChainLen() int {
	n := 0
	for _, ci := range b.ast.LHS {
		switch ci.Kind {
		case ops5.CondPos, ops5.CondNeg:
			n++
		}
	}
	return n
}

// bilinearApplicable reports whether this production can use the
// constrained bilinear shape: enough positive CEs, no NCCs, and every
// in-group negation's variables resolvable (checked during build; here we
// apply the cheap structural tests).
func (b *builder) bilinearApplicable() bool {
	pos := 0
	for _, ci := range b.ast.LHS {
		switch ci.Kind {
		case ops5.CondNCC:
			return false
		case ops5.CondPos:
			pos++
		}
	}
	return pos > b.nw.Opts.ContextCEs+b.nw.Opts.GroupCEs
}

// buildBilinear builds: a linear context prefix, per-group sub-chains
// constrained by the context, a chain of beta×beta pair joins combining the
// group results, and trailing negations on the combined line.
func (b *builder) buildBilinear() (*BetaNode, error) {
	b.shared = false // bilinear structures are private
	b.private = true
	ctxN := b.nw.Opts.ContextCEs
	groupSz := b.nw.Opts.GroupCEs

	// Split LHS: context items (first ctxN positive CEs and negs between
	// them), group items, deferred negations.
	var ctxItems []*ops5.CondItem
	var rest []*ops5.CondItem
	pos := 0
	for _, ci := range b.ast.LHS {
		if pos < ctxN {
			ctxItems = append(ctxItems, ci)
			if ci.Kind == ops5.CondPos {
				pos++
			}
		} else {
			rest = append(rest, ci)
		}
	}

	// Context chain.
	var cur *BetaNode
	for _, ci := range ctxItems {
		var err error
		switch ci.Kind {
		case ops5.CondPos:
			cur, err = b.addPositive(cur, ci.CE)
		case ops5.CondNeg:
			cur, err = b.addNegative(cur, ci.CE)
		}
		if err != nil {
			return nil, err
		}
	}
	ctxNode := cur
	ctxCount := b.posCount

	// Partition the rest into groups of positive CEs (negations stay with
	// their group when their variables are context- or group-local, else
	// they are deferred to the combined line).
	//
	// Trailing-negation rule: a group is flushed lazily — only when the
	// NEXT positive CE arrives — so a negation that textually follows a
	// group's final (groupSz-th) positive CE attaches to that full group,
	// not to the one after it. This is deliberate, not an off-by-one: OPS5
	// scopes a negation's variables to the conditions before it, so the
	// group whose positives precede the negation is exactly the group whose
	// bindings it may reference. Attaching it to the *next* group would
	// make those bindings foreign and force every trailing negation onto
	// the combined line (negResolvable would fail), serializing it behind
	// the pair joins. TestBilinearTrailingNegationPlacement pins both the
	// placement and linear-equivalence.
	type group struct {
		pos  []*ops5.CE
		negs []*ops5.CE
	}
	var groups []group
	var deferred []*ops5.CE
	cg := group{}
	for _, ci := range rest {
		switch ci.Kind {
		case ops5.CondPos:
			if len(cg.pos) == groupSz {
				groups = append(groups, cg)
				cg = group{}
			}
			cg.pos = append(cg.pos, ci.CE)
		case ops5.CondNeg:
			cg.negs = append(cg.negs, ci.CE)
		}
	}
	if len(cg.pos) > 0 || len(cg.negs) > 0 {
		groups = append(groups, cg)
	}

	// Build each group chain off the context; collect cross-group tests.
	// ceGroup records which group each positive CE tag compiled into — the
	// balanced combine places each cross test at the pair join where its
	// two groups first meet.
	groupBinds := make([]map[value.Sym]Binding, len(groups))
	ceGroup := make(map[int]int)
	var bottoms []*BetaNode
	var crossTests [][]BBTest // per group: tests vs earlier groups
	for gi, g := range groups {
		gb := make(map[value.Sym]Binding, len(b.bindings))
		// Visible bindings: context bindings plus this group's own.
		for v, bd := range b.bindings {
			if bd.CE < ctxCount {
				gb[v] = bd
			}
		}
		gcur := ctxNode
		var cross []BBTest
		for _, ce := range g.pos {
			tag := b.ceTag
			ceGroup[tag] = gi
			// Compile with group-visible bindings; cross-group variable
			// references surface as unbound-or-foreign and become BB tests.
			alphaTests, joinTests, bbs, newBinds, err := b.compileGroupCE(ce, tag, gb)
			if err != nil {
				return nil, err
			}
			cross = append(cross, bbs...)
			am := b.nw.buildAlpha(ce.Class, alphaTests)
			gcur = b.joinChild(gcur, KindJoin, am, joinTests, tag)
			for v, bd := range newBinds {
				gb[v] = bd
				b.bindings[v] = bd
			}
			b.ceTag++
			b.posCount++
		}
		// In-group negations: only if resolvable with group bindings.
		for _, ce := range g.negs {
			if b.negResolvable(ce, gb) {
				alphaTests, joinTests, _, err := b.compileCE(ce, -1, gb, false)
				if err != nil {
					return nil, err
				}
				am := b.nw.buildAlpha(ce.Class, alphaTests)
				gcur = b.joinChild(gcur, KindNot, am, joinTests, -1)
			} else {
				deferred = append(deferred, ce)
			}
		}
		groupBinds[gi] = gb
		bottoms = append(bottoms, gcur)
		crossTests = append(crossTests, cross)
	}

	// Pair-join the group bottoms. The fixed Bilinear organization chains
	// them left to right (Fig 6-8's shape: depth ctx + group + G-1); the
	// auto pass combines them with a balanced binary tree (depth ctx +
	// group + ceil(log2 G)) — the bounded-depth structure that shortens
	// the dependent activation chain the paper names as the second
	// parallelism limiter.
	if len(bottoms) == 0 {
		return ctxNode, nil
	}
	var main *BetaNode
	if b.nw.Opts.Organization == BilinearAuto {
		main = b.combineBalanced(bottoms, crossTests, ceGroup, ctxCount)
	} else {
		main = bottoms[0]
		for gi := 1; gi < len(bottoms); gi++ {
			tests := crossTests[gi]
			nEq := canonicalizeBB(tests)
			if b.nw.Opts.LinearMemories {
				nEq = 0
			}
			bb := b.newNode(&BetaNode{
				Kind:        KindJoinBB,
				Parent:      main,
				RightParent: bottoms[gi],
				BBTests:     tests,
				nEqTests:    nEq,
				BranchN:     ctxCount,
				private:     true,
			})
			b.attach(main, bb)
			b.attach(bottoms[gi], bb)
			main = bb
		}
	}
	// Note: cross tests of group 0 are impossible (no earlier group).

	// Deferred negations on the combined line.
	for _, ce := range deferred {
		var err error
		main, err = b.addNegative(main, ce)
		if err != nil {
			return nil, err
		}
	}
	return main, nil
}

// combineBalanced builds a balanced binary pair-join tree over the group
// bottoms. Every cross-group test has LeftCE bound in an earlier group
// than RightCE (compileGroupCE only emits a BB test for a variable bound
// in a prior group), so for each test there is exactly one tree node where
// its left group falls in the left subtree and its right group in the
// right subtree — the LCA of the two groups — and the test is applied
// there. Tokens are pairs of pairs; ctxOf/ancestorAt/stripAbove descend
// the left spine, where the shared context always lives.
func (b *builder) combineBalanced(bottoms []*BetaNode, crossTests [][]BBTest, ceGroup map[int]int, ctxCount int) *BetaNode {
	var all []BBTest
	for _, ts := range crossTests {
		all = append(all, ts...)
	}
	var combine func(lo, hi int) *BetaNode
	combine = func(lo, hi int) *BetaNode {
		if lo == hi {
			return bottoms[lo]
		}
		mid := (lo + hi) / 2
		left := combine(lo, mid)
		right := combine(mid+1, hi)
		var tests []BBTest
		for _, t := range all {
			lg, rg := ceGroup[t.LeftCE], ceGroup[t.RightCE]
			if lg >= lo && lg <= mid && rg > mid && rg <= hi {
				tests = append(tests, t)
			}
		}
		nEq := canonicalizeBB(tests)
		if b.nw.Opts.LinearMemories {
			nEq = 0
		}
		bb := b.newNode(&BetaNode{
			Kind:        KindJoinBB,
			Parent:      left,
			RightParent: right,
			BBTests:     tests,
			nEqTests:    nEq,
			BranchN:     ctxCount,
			private:     true,
		})
		b.attach(left, bb)
		b.attach(right, bb)
		return bb
	}
	return combine(0, len(bottoms)-1)
}

// compileGroupCE is compileCE for bilinear groups: references to variables
// bound in *other groups* become BB tests at the pair join.
func (b *builder) compileGroupCE(ce *ops5.CE, tag int, gb map[value.Sym]Binding) (alphaTests []AlphaTest, joinTests []JoinTest, bbs []BBTest, newBinds map[value.Sym]Binding, err error) {
	newBinds = make(map[value.Sym]Binding)
	localFields := make(map[value.Sym]int)
	for _, at := range ce.Tests {
		field, ok := b.nw.Reg.FieldIndex(ce.Class, at.Attr, true)
		if !ok {
			return nil, nil, nil, nil, fmt.Errorf("rete: %s: unknown attribute", b.ast.Name)
		}
		for _, t := range at.Tests {
			switch t.Kind {
			case ops5.TestConst:
				alphaTests = append(alphaTests, AlphaTest{Field: field, Pred: t.Pred, Val: t.Val})
			case ops5.TestDisj:
				alphaTests = append(alphaTests, AlphaTest{Field: field, Disj: t.Disj})
			case ops5.TestVar:
				switch {
				case hasBinding(gb, newBinds, t.Var):
					bd := getBinding(gb, newBinds, t.Var)
					if bd.CE == tag {
						alphaTests = append(alphaTests, AlphaTest{Field: field, Pred: t.Pred, VsField: true, Other: bd.Field})
					} else {
						joinTests = append(joinTests, JoinTest{RightField: field, LeftCE: bd.CE, LeftField: bd.Field, Pred: t.Pred})
					}
				case hasLocal(localFields, t.Var):
					alphaTests = append(alphaTests, AlphaTest{Field: field, Pred: t.Pred, VsField: true, Other: localFields[t.Var]})
				default:
					if bd, ok := b.bindings[t.Var]; ok {
						// Bound in an earlier group: cross-group test.
						bbs = append(bbs, BBTest{LeftCE: bd.CE, LeftField: bd.Field, RightCE: tag, RightField: field, Pred: t.Pred})
						if t.Pred == value.PredEq {
							newBinds[t.Var] = Binding{CE: tag, Field: field}
							localFields[t.Var] = field
						}
						continue
					}
					if t.Pred != value.PredEq {
						return nil, nil, nil, nil, fmt.Errorf("rete: %s: predicate %v on unbound variable", b.ast.Name, t.Pred)
					}
					newBinds[t.Var] = Binding{CE: tag, Field: field}
					localFields[t.Var] = field
				}
			}
		}
	}
	return alphaTests, joinTests, bbs, newBinds, nil
}

// negResolvable reports whether every bound-variable reference in a
// negated CE is available in the given bindings.
func (b *builder) negResolvable(ce *ops5.CE, gb map[value.Sym]Binding) bool {
	for _, at := range ce.Tests {
		for _, t := range at.Tests {
			if t.Kind != ops5.TestVar {
				continue
			}
			if _, ok := gb[t.Var]; ok {
				continue
			}
			if _, ok := b.bindings[t.Var]; ok {
				return false // bound only in a foreign group
			}
		}
	}
	return true
}

func canonicalizeBB(tests []BBTest) int {
	sort.SliceStable(tests, func(i, j int) bool {
		a, c := tests[i], tests[j]
		ae, ce := a.Pred == value.PredEq, c.Pred == value.PredEq
		if ae != ce {
			return ae
		}
		if a.LeftCE != c.LeftCE {
			return a.LeftCE < c.LeftCE
		}
		return a.RightCE < c.RightCE
	})
	n := 0
	for _, t := range tests {
		if t.Pred == value.PredEq {
			n++
		}
	}
	return n
}
