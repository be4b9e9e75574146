package soar

import (
	"cmp"
	"slices"

	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// pref is one decoded preference wme.
type pref struct {
	object value.Sym
	kind   value.Sym
	ref    value.Sym
	than   value.Sym
	w      *wme.WME
}

// prefTable indexes preferences by (goal, role).
type prefTable map[value.Sym]map[value.Sym][]pref

// collectPrefs decodes the live preferences, in time-tag order, from the
// agent's preference index, and drops the entries working memory no longer
// holds.
func (a *Agent) collectPrefs() prefTable {
	t := prefTable{}
	live := a.prefs[:0]
	for _, w := range a.prefs {
		if !a.inWM(w) {
			continue
		}
		live = append(live, w)
		g := w.Field(0).Sym
		role := w.Field(2).Sym
		if t[g] == nil {
			t[g] = map[value.Sym][]pref{}
		}
		t[g][role] = append(t[g][role], pref{
			object: w.Field(1).Sym,
			kind:   w.Field(3).Sym,
			ref:    w.Field(4).Sym,
			than:   w.Field(5).Sym,
			w:      w,
		})
	}
	clear(a.prefs[len(live):])
	a.prefs = live
	return t
}

// inWM reports whether w is in working memory.
func (a *Agent) inWM(w *wme.WME) bool { return a.Eng.WM.Get(w.ID) == w }

// maxGoalDepth bounds subgoal recursion: a slot that impasses at this depth
// ends the run instead of creating a subgoal.
const maxGoalDepth = 8

// outcomeKind classifies a slot decision.
type outcomeKind uint8

const (
	outKeep outcomeKind = iota
	outDecide
	outImpasse
)

type outcome struct {
	kind       outcomeKind
	winner     value.Sym
	impasse    impasse
	candidates []value.Sym
	accWMEs    map[value.Sym]*wme.WME // candidate -> acceptable pref wme
}

// decideSlot runs the preference semantics for one context slot.
func (a *Agent) decideSlot(g *goalEntry, s slot, prefs prefTable) outcome {
	k := a.k
	slotPrefs := prefs[g.id][a.slotSym(s)]
	curState := g.slots[slotState]

	refOK := func(p pref) bool {
		if s == slotProblemSpace {
			return true
		}
		// State and operator preferences apply to the current state.
		return p.ref == curState
	}

	acc := map[value.Sym]*wme.WME{}
	rejected := map[value.Sym]bool{}
	best := map[value.Sym]bool{}
	worst := map[value.Sym]bool{}
	indiff := map[value.Sym]bool{}
	type edge struct{ hi, lo value.Sym }
	var edges []edge
	for _, p := range slotPrefs {
		if !refOK(p) {
			continue
		}
		switch p.kind {
		case k.kAcceptable:
			if _, ok := acc[p.object]; !ok {
				acc[p.object] = p.w
			}
		case k.kReject:
			rejected[p.object] = true
		case k.kBest:
			best[p.object] = true
		case k.kWorst:
			worst[p.object] = true
		case k.kInd:
			indiff[p.object] = true
		case k.kBetter:
			edges = append(edges, edge{p.object, p.than})
		case k.kWorse:
			edges = append(edges, edge{p.than, p.object})
		}
	}
	var cands []value.Sym
	for o := range acc {
		if !rejected[o] {
			cands = append(cands, o)
		}
	}
	a.sortSyms(cands)

	in := func(set []value.Sym, o value.Sym) bool {
		for _, x := range set {
			if x == o {
				return true
			}
		}
		return false
	}

	w := cands
	// best restriction
	var bestSet []value.Sym
	for _, o := range w {
		if best[o] {
			bestSet = append(bestSet, o)
		}
	}
	if len(bestSet) > 0 {
		w = bestSet
	}
	// worst removal (only if alternatives remain)
	var nonWorst []value.Sym
	for _, o := range w {
		if !worst[o] {
			nonWorst = append(nonWorst, o)
		}
	}
	if len(nonWorst) > 0 {
		w = nonWorst
	}
	// better/worse domination
	if len(edges) > 0 && len(w) > 1 {
		dominated := map[value.Sym]bool{}
		conflictFound := false
		for _, e := range edges {
			if in(w, e.hi) && in(w, e.lo) {
				dominated[e.lo] = true
			}
		}
		var rest []value.Sym
		for _, o := range w {
			if !dominated[o] {
				rest = append(rest, o)
			}
		}
		if len(rest) == 0 {
			conflictFound = true
		} else {
			w = rest
		}
		if conflictFound {
			return outcome{kind: outImpasse, impasse: impasseConflict, candidates: w, accWMEs: acc}
		}
	}

	switch {
	case len(w) == 0:
		if g.slots[s] != value.NilSym {
			return outcome{kind: outKeep}
		}
		return outcome{kind: outImpasse, impasse: impasseNoChange}
	case len(w) == 1:
		if w[0] == g.slots[s] {
			return outcome{kind: outKeep}
		}
		return outcome{kind: outDecide, winner: w[0]}
	default:
		allIndiff := true
		for _, o := range w {
			if !indiff[o] {
				allIndiff = false
				break
			}
		}
		if allIndiff {
			if w[0] == g.slots[s] {
				return outcome{kind: outKeep}
			}
			return outcome{kind: outDecide, winner: w[0]}
		}
		return outcome{kind: outImpasse, impasse: impasseTie, candidates: w, accWMEs: acc}
	}
}

// decide runs the decision phase (paper §3): scan the context stack from
// the top goal down, problem-space/state/operator in order; the first slot
// that can change is changed (destroying lower goals); the first impasse
// without an existing subgoal creates one. Returns false at fixpoint.
func (a *Agent) decide() (bool, error) {
	prefs := a.collectPrefs()
nextGoal:
	for gi := 0; gi < len(a.goals); gi++ {
		g := a.goals[gi]
		for s := slotProblemSpace; s < numSlots; s++ {
			out := a.decideSlot(g, s, prefs)
			switch out.kind {
			case outKeep:
				continue
			case outDecide:
				if a.tracing() {
					a.tracef("decide: goal %s %v <- %s [%s]", a.fmtSym(g.id), s, a.fmtSym(out.winner), a.signature(out.winner))
				}
				if s == slotOperator && gi == 0 {
					a.res.OperatorDecisions++
				}
				a.changeSlot(g, s, out.winner)
				return true, nil
			case outImpasse:
				if g.subImpasse == out.impasse && g.subSlot == s && gi+1 < len(a.goals) {
					// The existing subgoal is working on this impasse;
					// slots below an impassed slot cannot be decided, so
					// move on to the subgoal.
					continue nextGoal
				}
				if g.depth >= maxGoalDepth {
					if a.tracing() {
						a.tracef("decide: max goal depth at %s (%v %v)", a.fmtSym(g.id), s, out.impasse)
					}
					return false, nil
				}
				if a.tracing() {
					a.tracef("decide: goal %s %v impasse %v (%d candidates)",
						a.fmtSym(g.id), s, out.impasse, len(out.candidates))
				}
				deltas := a.destroyBelow(g.depth)
				deltas = append(deltas, a.createSubgoal(g, s, out)...)
				a.Eng.ApplyAndMatch(deltas)
				return true, nil
			}
		}
	}
	// No slot anywhere can change: an operator no-change impasse (paper
	// §3 — the selected operator's application needs a subgoal). Created
	// on the lowest goal with an operator installed and no subgoal yet.
	low := a.goals[len(a.goals)-1]
	if low.slots[slotOperator] != value.NilSym && low.subImpasse == impasseNone && low.depth < maxGoalDepth {
		if a.tracing() {
			a.tracef("decide: goal %s operator no-change impasse", a.fmtSym(low.id))
		}
		deltas := a.createSubgoal(low, slotOperator, outcome{impasse: impasseNoChange})
		a.Eng.ApplyAndMatch(deltas)
		return true, nil
	}
	return false, nil
}

// changeSlot installs v in goal g's slot s: it destroys the goals below g,
// clears g's lower slots, collects garbage, and matches the changes.
func (a *Agent) changeSlot(g *goalEntry, s slot, v value.Sym) {
	deltas := a.destroyBelow(g.depth)
	deltas = append(deltas, a.installSlot(g, s, v)...)
	for s2 := s + 1; s2 < numSlots; s2++ {
		deltas = append(deltas, a.installSlot(g, s2, value.NilSym)...)
	}
	g.subImpasse = impasseNone
	if a.gcWrap != nil {
		deltas = a.gcWrap(a.gcDeltas, deltas)
	} else {
		deltas = a.gcDeltas(deltas)
	}
	a.Eng.ApplyAndMatch(deltas)
	// The context wmes installSlot replaced are out of working memory now;
	// they keep their anchors (old firing records backtrace through them)
	// but leave byID, and their values lose the links. Unlinking them any
	// earlier would hide them from this decision's garbage collection,
	// which still walks them.
	for _, d := range deltas {
		if d.Op == wme.Remove && d.WME.Class == a.k.clsContext {
			a.unlink(d.WME)
		}
	}
}

// createSubgoal builds the architecture wmes of a new subgoal: the goal
// wme and, for ties/conflicts, one impasse item per candidate whose
// backtrace substitute is the candidate's acceptable preference.
func (a *Agent) createSubgoal(g *goalEntry, s slot, out outcome) []wme.Delta {
	depth := g.depth + 1
	sub := a.gensym("g", depth)
	gw := a.archWME(a.k.clsGoal, depth,
		value.SymVal(sub), value.SymVal(g.id),
		value.SymVal(a.impasseSym(out.impasse)), value.SymVal(a.slotSym(s)))
	deltas := []wme.Delta{{Op: wme.Add, WME: gw}}
	ge := &goalEntry{id: sub, depth: depth, wme: gw}
	a.goals = append(a.goals, ge)
	g.subImpasse = out.impasse
	g.subSlot = s
	for _, c := range out.candidates {
		iw := a.archWME(a.k.clsItem, depth, value.SymVal(sub), value.SymVal(c))
		if accW := out.accWMEs[c]; accW != nil {
			a.subst[iw.ID] = accW
		}
		deltas = append(deltas, wme.Delta{Op: wme.Add, WME: iw})
	}
	return deltas
}

// destroyBelow removes every goal deeper than depth and the wmes at those
// levels (the decision module's garbage collection of subgoal structures),
// in time-tag order. It visits only the identifiers deeper than the top
// level (a.deep). The popped goals become collection candidates.
func (a *Agent) destroyBelow(depth int) []wme.Delta {
	if len(a.goals) == 0 || a.goals[len(a.goals)-1].depth <= depth {
		return nil
	}
	rm, gone := a.gc.rm[:0], a.gc.scope[:0]
	keep := a.deep[:0]
	for _, s := range a.deep {
		switch lvl, ok := a.idLevel[s]; {
		case !ok || lvl == 1:
			// Gone already, or promoted to the top level: no longer deep.
		case lvl <= depth:
			keep = append(keep, s)
		default:
			gone = append(gone, s)
			for _, w := range a.byID[s] {
				if a.inWM(w) {
					rm = append(rm, w)
				}
			}
		}
	}
	a.deep = keep
	slices.SortFunc(rm, func(x, y *wme.WME) int { return cmp.Compare(x.TimeTag, y.TimeTag) })
	deltas := make([]wme.Delta, len(rm))
	for i, w := range rm {
		deltas[i] = wme.Delta{Op: wme.Remove, WME: w}
		a.forgetWME(w)
	}
	for _, s := range gone {
		delete(a.idLevel, s)
		delete(a.byID, s)
	}
	for len(a.goals) > 0 && a.goals[len(a.goals)-1].depth > depth {
		a.gc.cand = append(a.gc.cand, a.goals[len(a.goals)-1].id)
		a.goals = a.goals[:len(a.goals)-1]
	}
	a.goals[len(a.goals)-1].subImpasse = impasseNone
	clear(rm)
	a.gc.rm, a.gc.scope = rm[:0], gone[:0]
	return deltas
}
