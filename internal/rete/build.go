package rete

import (
	"fmt"
	"maps"
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
	// boundary lists the new nodes whose parent (left or right input) is a
	// pre-existing shared node: the "first new node" positions whose left
	// state must be seeded from the last shared node's stored PIs.
	boundary []*BetaNode
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
	posCount int
	shared   bool
	private  bool // creating NCC-sub or bilinear nodes: never share into
	info     *AddInfo
}

// AddProduction compiles ast into the network's own layer, sharing nodes
// with existing productions where Options.ShareBeta allows; base nodes are
// reused read-only, never mutated. The whole production — conditions and
// actions — is compiled and checked before its first node is built, so a
// production that is rejected leaves the network as it was, and whether it
// is rejected does not depend on the network's shape. The caller must be
// quiescent (no match tasks in flight). The returned AddInfo seeds the
// state update.
func (nw *Network) AddProduction(ast *ops5.Production) (*Production, *AddInfo, error) {
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
	conds, err := b.compileLHS()
	if err != nil {
		return nil, nil, err
	}
	prod := &Production{Name: ast.Name, AST: ast, Bindings: b.bindings}
	if err := b.checkRHS(prod, conds); err != nil {
		return nil, nil, err
	}
	var bottom *BetaNode
	if prod.Restructured = b.useBilinear(); prod.Restructured {
		bottom = b.buildBilinear(conds)
	} else {
		bottom = b.buildLinear(conds)
	}
	prod.numCEs = b.posCount
	pn := b.newNode(&BetaNode{Kind: KindP, parent: bottom, prod: prod})
	b.attach(bottom, pn)
	prod.PNode = pn
	own := &nw.own
	own.prods[ast.Name] = prod
	own.prodOrder = append(own.prodOrder, prod)

	b.info.Prod = prod
	b.finishInfo()
	// Size the unlink counters for the new node IDs while still quiescent
	// (match workers read them with atomics and never reallocate).
	nw.Mem.nc.grow(int(own.nextID) + 1)
	nw.Prof.grow(int(own.nextID) + 1)
	b.info.SpliceTime = time.Since(start)
	return prod, b.info, nil
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
		leftOld := n.parent == nil || !isNew(n.parent)
		rightOld := n.Kind == KindJoinBB && !isNew(n.rightParent)
		if leftOld || rightOld {
			inf.boundary = append(inf.boundary, n)
		}
		if am := n.alpha; am != nil {
			inf.updPath = append(inf.updPath, am.id)
			for a := am.at; a != nil; a = a.parent {
				inf.updPath = append(inf.updPath, a.id)
			}
		}
	}
	slices.Sort(inf.updPath)
	inf.updPath = slices.Clip(slices.Compact(inf.updPath))
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
		parent.children = append(parent.children, child)
	}
}

// ---- the conditions, compiled once ----

// cond is one LHS item compiled in source order against the bindings of the
// items to its left. It is the only place a production's variables are
// scoped: every network shape builds from the same conds, so a production
// is legal under any shape exactly when its linear chain is.
type cond struct {
	kind  ops5.CondKind
	class value.Sym
	tag   int // token position of a positive CE; -1 for a negation or an NCC
	alpha []alphaTest
	join  []JoinTest // against the first binding of each variable they read
	sub   []cond     // a conjunctive negation's sub-chain
}

// compileLHS compiles the production's conditions in source order.
func (b *builder) compileLHS() ([]cond, error) {
	conds := make([]cond, len(b.ast.LHS))
	tag := 0
	for i, ci := range b.ast.LHS {
		if i == 0 && ci.Kind != ops5.CondPos {
			return nil, fmt.Errorf("rete: production %s: first condition must be positive", b.ast.Name)
		}
		c := &conds[i]
		c.kind, c.tag = ci.Kind, -1
		var err error
		switch ci.Kind {
		case ops5.CondPos:
			c.tag, tag = tag, tag+1
			err = b.compileCE(c, ci.CE, b.bindings)
		case ops5.CondNeg:
			err = b.compileCE(c, ci.CE, b.bindings)
		case ops5.CondNCC:
			// The sub-chain's bindings extend the outer ones, scoped inside
			// the negation.
			local := maps.Clone(b.bindings)
			c.sub = make([]cond, len(ci.Sub))
			for j, ce := range ci.Sub {
				c.sub[j] = cond{kind: ops5.CondPos, tag: tag}
				tag++
				if err = b.compileCE(&c.sub[j], ce, local); err != nil {
					break
				}
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return conds, nil
}

// compileCE splits a CE's attribute tests into alpha tests (constants,
// disjunctions, intra-CE variable consistency) and join tests against the
// variables scope binds to CEs to its left. A positive CE (c.tag >= 0)
// binds its unbound equality variables in scope; in a negated one they are
// wildcards local to the CE.
func (b *builder) compileCE(c *cond, ce *ops5.CE, scope map[value.Sym]Binding) error {
	c.class = ce.Class
	var wild map[value.Sym]int // a negated CE's wildcards -> field
	for _, at := range ce.Tests {
		field, ok := b.nw.Reg.FieldIndex(ce.Class, at.Attr, true)
		if !ok {
			return fmt.Errorf("rete: %s: unknown attribute", b.ast.Name)
		}
		for _, t := range at.Tests {
			switch t.Kind {
			case ops5.TestConst:
				c.alpha = append(c.alpha, alphaTest{field: field, pred: t.Pred, val: t.Val})
				continue
			case ops5.TestDisj:
				c.alpha = append(c.alpha, alphaTest{field: field, disj: t.Disj})
				continue
			}
			if bd, ok := scope[t.Var]; ok {
				if bd.CE == c.tag {
					c.alpha = append(c.alpha, alphaTest{field: field, pred: t.Pred, vsField: true, other: bd.Field})
				} else {
					c.join = append(c.join, JoinTest{rightField: field, leftCE: bd.CE, leftField: bd.Field, Pred: t.Pred})
				}
				continue
			}
			if f, ok := wild[t.Var]; ok {
				c.alpha = append(c.alpha, alphaTest{field: field, pred: t.Pred, vsField: true, other: f})
				continue
			}
			switch {
			case t.Pred != value.PredEq:
				return fmt.Errorf("rete: %s: predicate %v on unbound variable <%s>", b.ast.Name, t.Pred, b.nw.Tab.Name(t.Var))
			case c.tag >= 0:
				if b.negVars[t.Var] {
					return fmt.Errorf("rete: %s: variable <%s> first bound in a negated condition", b.ast.Name, b.nw.Tab.Name(t.Var))
				}
				scope[t.Var] = Binding{CE: c.tag, Field: field}
			default:
				b.negVars[t.Var] = true
				if wild == nil {
					wild = make(map[value.Sym]int)
				}
				wild[t.Var] = field
			}
		}
	}
	return nil
}

// checkRHS validates the actions' CE references and variable uses, and
// records where each LHS position and element variable sits in a token: the
// tags compileLHS gave the conditions.
func (b *builder) checkRHS(p *Production, conds []cond) error {
	tab := b.nw.Tab
	p.ActionCE = make([]int, len(conds))
	p.ElemCE = make(map[value.Sym]int)
	for i, c := range conds {
		p.ActionCE[i] = c.tag
		if ev := p.AST.LHS[i].ElemVar; ev != 0 && c.kind == ops5.CondPos {
			if _, dup := p.ElemCE[ev]; dup {
				return fmt.Errorf("rete: %s: element variable <%s> bound twice", p.Name, tab.Name(ev))
			}
			p.ElemCE[ev] = c.tag
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
			return fmt.Errorf("rete: %s: unbound variable <%s> in RHS", p.Name, tab.Name(e.Var))
		}
		if err := checkExpr(e.L); err != nil {
			return err
		}
		return checkExpr(e.R)
	}
	for _, a := range p.AST.RHS {
		switch a.Kind {
		case ops5.ActRemove, ops5.ActModify:
			if a.Elem != 0 {
				if _, ok := p.ElemCE[a.Elem]; !ok {
					return fmt.Errorf("rete: %s: unbound element variable <%s>", p.Name, tab.Name(a.Elem))
				}
				break
			}
			if a.CE < 1 || a.CE > len(conds) {
				return fmt.Errorf("rete: %s: action references CE %d of %d", p.Name, a.CE, len(conds))
			}
			if p.ActionCE[a.CE-1] < 0 {
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
	return nil
}

// ---- linear organization ----

// buildLinear chains the conditions left to right: OPS5's network shape.
func (b *builder) buildLinear(conds []cond) *BetaNode {
	var cur *BetaNode
	for i := range conds {
		cur = b.addCond(cur, &conds[i])
	}
	return cur
}

// addCond builds one condition below cur: a join node for a positive CE, a
// not node for a negated one, an NCC pair for a conjunctive negation.
func (b *builder) addCond(cur *BetaNode, c *cond) *BetaNode {
	switch c.kind {
	case ops5.CondPos:
		b.posCount++
		return b.joinChild(cur, KindJoin, c)
	case ops5.CondNeg:
		return b.joinChild(cur, KindNot, c)
	}
	return b.addNCC(cur, c.sub)
}

// addNCC builds a conjunctive negation: a positive sub-chain hanging off
// cur, terminated by a partner node paired with an NCC node on the main
// line. NCC structures are never shared.
func (b *builder) addNCC(cur *BetaNode, sub []cond) *BetaNode {
	b.shared = false // NCC pairs are private to their production
	b.private = true
	subCur := cur
	for i := range sub {
		subCur = b.joinChild(subCur, KindJoin, &sub[i])
	}
	b.private = false
	ncc := b.newNode(&BetaNode{Kind: KindNCC, parent: cur, branchN: b.posCount, private: true})
	partner := b.newNode(&BetaNode{Kind: KindNCCPartner, parent: subCur, branchN: b.posCount, private: true})
	ncc.partner = partner
	partner.partner = ncc
	b.attach(subCur, partner)
	b.attach(cur, ncc)
	return ncc
}

// joinChild finds or creates the join or not child of cur that takes c's
// alpha memory as its right input and applies c's join tests.
func (b *builder) joinChild(cur *BetaNode, kind BetaKind, c *cond) *BetaNode {
	am := b.nw.buildAlpha(c.class, c.alpha)
	tests := c.join
	nEq := canonicalizeTests(tests)
	if b.nw.Opts.LinearMemories {
		nEq = 0 // no hash discrimination: scan the whole node memory
	}
	if b.shared && b.nw.Opts.ShareBeta {
		for _, s := range b.nw.childrenOf(cur) {
			if !s.private && s.Kind == kind && s.alpha == am && s.rightCE == c.tag && sameTests(s.Tests, tests) {
				// Sharing into a base node reuses it without any mutation:
				// its refs stay as compiled (base nodes are permanent;
				// excise skips them).
				if !b.nw.inBase(s.ID) {
					s.refs++
				}
				b.info.SharedTwoInput++
				return s
			}
		}
	}
	n := b.newNode(&BetaNode{
		Kind:     kind,
		parent:   cur,
		alpha:    am,
		rightCE:  c.tag,
		Tests:    tests,
		nEqTests: nEq,
		private:  b.private,
	})
	if b.nw.inBase(am.id) {
		succs := b.nw.own.spliced().alphaSuccs
		succs[am.id] = append(succs[am.id], n)
	} else {
		am.succs = append(am.succs, n)
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
		if a.leftCE != c.leftCE {
			return a.leftCE < c.leftCE
		}
		if a.leftField != c.leftField {
			return a.leftField < c.leftField
		}
		return a.rightField < c.rightField
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

// ---- bilinear organization (paper Figure 6-8) ----

// useBilinear decides whether this production compiles into the
// constrained bilinear shape. Bilinear restructures every applicable
// production (the fixed Fig 6-8 organization, left-spine pair joins);
// BilinearAuto restructures only chain-depth victims — productions whose
// linear join chain would reach BilinearDepth two-input nodes —
// and combines their groups with a balanced pair-join tree. The decision
// is purely structural (source + options), so runtime chunks added
// over a shared base make it identically on every session.
func (b *builder) useBilinear() bool {
	switch b.nw.Opts.Organization {
	case Bilinear:
		return b.bilinearApplicable()
	case BilinearAuto:
		return b.bilinearApplicable() && b.linearChainLen() >= BilinearDepth
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
// constrained bilinear shape: more positive CEs than the context and one
// group hold, and no NCCs.
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

// groupScope places a restructured production's conditions, compiled
// against each variable's first binding, into the CEs a bilinear group can
// see: the context's and its own. A join test against a CE of another
// group becomes a pair test, applied where the two groups meet; the first
// equality such test also binds the variable again inside the group, and
// the group's later tests of it join against that CE instead. A pair test
// reads its variable at its latest binding in an earlier group.
type groupScope struct {
	ctxTags int                 // CE tags below this are the context's
	group   int                 // the group placing conditions; -1 is the combined line
	groupOf map[int]int         // positive CE tag -> its group
	local   map[Binding]Binding // first binding -> where the current group binds it again
	latest  map[Binding]Binding // first binding -> where a finished group last bound it again
	pairs   []BBTest            // every group's pair tests, in build order
}

// at returns where the current group reads the variable first bound at
// src. It reports false for another group's variable the group has not
// bound again; the combined line reads every variable at its latest
// binding.
func (s *groupScope) at(src Binding) (Binding, bool) {
	switch {
	case s.group < 0:
		if l, ok := s.latest[src]; ok {
			return l, true
		}
		return src, true
	case src.CE < s.ctxTags || s.groupOf[src.CE] == s.group:
		return src, true
	}
	l, ok := s.local[src]
	return l, ok
}

// place rescopes c for the current group. A positive CE's tests of foreign
// variables go to s.pairs; a negation that tests one cannot be placed here
// (false) and waits for the combined line.
func (s *groupScope) place(c *cond) (cond, bool) {
	out := cond{kind: c.kind, class: c.class, tag: c.tag, alpha: slices.Clip(c.alpha)}
	for _, jt := range c.join {
		src := Binding{CE: jt.leftCE, Field: jt.leftField}
		l, ok := s.at(src)
		switch {
		case ok && l.CE == c.tag:
			out.alpha = append(out.alpha, alphaTest{field: jt.rightField, pred: jt.Pred, vsField: true, other: l.Field})
		case ok:
			jt.leftCE, jt.leftField = l.CE, l.Field
			out.join = append(out.join, jt)
		case c.kind != ops5.CondPos:
			return cond{}, false
		default:
			if last, ok := s.latest[src]; ok {
				l = last
			} else {
				l = src
			}
			s.pairs = append(s.pairs, BBTest{leftCE: l.CE, leftField: l.Field, rightCE: c.tag, rightField: jt.rightField, pred: jt.Pred})
			if jt.Pred == value.PredEq {
				s.local[src] = Binding{CE: c.tag, Field: jt.rightField}
			}
		}
	}
	return out, true
}

// buildBilinear builds Figure 6-8's shape: a linear context prefix of the
// first ContextCEs positive CEs, the rest cut into groups of GroupCEs
// positive CEs, each a sub-chain below the context, the groups' bottoms
// combined by pair joins, and on the combined line the negations no group
// could hold.
func (b *builder) buildBilinear(conds []cond) *BetaNode {
	b.shared = false // bilinear structures are private
	b.private = true
	var ctx *BetaNode
	i := 0
	for ; i < len(conds) && b.posCount < b.nw.Opts.ContextCEs; i++ {
		ctx = b.addCond(ctx, &conds[i])
	}

	// Cut the rest into groups of positive CEs, each negation with the
	// group before it.
	//
	// Trailing-negation rule: a group is flushed lazily — only when the
	// NEXT positive CE arrives — so a negation that textually follows a
	// group's final (GroupCEs-th) positive CE attaches to that full group,
	// not to the one after it. This is deliberate, not an off-by-one: OPS5
	// scopes a negation's variables to the conditions before it, so the
	// group whose positives precede the negation is exactly the group whose
	// bindings it may reference. Attaching it to the *next* group would
	// make those bindings foreign and force every trailing negation onto
	// the combined line, serializing it behind the pair joins.
	// TestBilinearTrailingNegationPlacement pins both the placement and
	// linear-equivalence.
	type group struct{ pos, negs []*cond }
	var groups []group
	var open group
	for ; i < len(conds); i++ {
		c := &conds[i]
		if c.kind == ops5.CondNeg {
			open.negs = append(open.negs, c)
			continue
		}
		if len(open.pos) == b.nw.Opts.GroupCEs {
			groups = append(groups, open)
			open = group{}
		}
		open.pos = append(open.pos, c)
	}
	groups = append(groups, open)

	s := &groupScope{ctxTags: b.posCount, groupOf: make(map[int]int), latest: make(map[Binding]Binding)}
	for gi, g := range groups {
		for _, c := range g.pos {
			s.groupOf[c.tag] = gi
		}
	}
	// Each group is a sub-chain below the context: its positive CEs, then
	// the negations it can place.
	bottoms := make([]*BetaNode, len(groups))
	var deferred []*cond
	for gi, g := range groups {
		s.group, s.local = gi, make(map[Binding]Binding)
		cur := ctx
		for _, c := range g.pos {
			gc, _ := s.place(c)
			b.posCount++
			cur = b.joinChild(cur, KindJoin, &gc)
		}
		for _, c := range g.negs {
			if gc, ok := s.place(c); ok {
				cur = b.joinChild(cur, KindNot, &gc)
			} else {
				deferred = append(deferred, c)
			}
		}
		bottoms[gi] = cur
		maps.Copy(s.latest, s.local)
	}
	main := b.combine(bottoms, 0, len(bottoms)-1, s)
	s.group = -1
	for _, c := range deferred {
		gc, _ := s.place(c)
		main = b.joinChild(main, KindNot, &gc)
	}
	return main
}

// combine joins the group bottoms lo..hi with pair joins: under Bilinear
// the left spine of Figure 6-8, each group joined onto all before it
// (depth context + group + G-1); under BilinearAuto a balanced binary tree
// (depth context + group + ceil(log2 G)) — the bounded depth that shortens
// the dependent activation chain the paper names as the second parallelism
// limiter. A pair test reads a group to the left of its own (see
// groupScope), so exactly one pair join has its left group in its left
// input and its right group in its right input: the test sits there. Tokens
// are pairs of pairs; ctxOf/ancestorAt/stripAbove descend the left spine,
// where the shared context always lives.
func (b *builder) combine(bottoms []*BetaNode, lo, hi int, s *groupScope) *BetaNode {
	if lo == hi {
		return bottoms[lo]
	}
	mid := hi - 1
	if b.nw.Opts.Organization == BilinearAuto {
		mid = (lo + hi) / 2
	}
	left := b.combine(bottoms, lo, mid, s)
	right := b.combine(bottoms, mid+1, hi, s)
	var tests []BBTest
	for _, t := range s.pairs {
		lg, rg := s.groupOf[t.leftCE], s.groupOf[t.rightCE]
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
		parent:      left,
		rightParent: right,
		BBTests:     tests,
		nEqTests:    nEq,
		branchN:     s.ctxTags,
		private:     true,
	})
	b.attach(left, bb)
	b.attach(right, bb)
	return bb
}

func canonicalizeBB(tests []BBTest) int {
	sort.SliceStable(tests, func(i, j int) bool {
		a, c := tests[i], tests[j]
		ae, ce := a.pred == value.PredEq, c.pred == value.PredEq
		if ae != ce {
			return ae
		}
		if a.leftCE != c.leftCE {
			return a.leftCE < c.leftCE
		}
		return a.rightCE < c.rightCE
	})
	n := 0
	for _, t := range tests {
		if t.pred == value.PredEq {
			n++
		}
	}
	return n
}
