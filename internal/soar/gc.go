package soar

import (
	"cmp"
	"slices"

	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// This file is the decision module's garbage collection of inaccessible
// wmes (paper §3).
//
// An object is accessible when a chain of links reaches it from a context
// root: a goal, a slot value of a goal, or a permanent startup symbol. A
// link is a symbol-valued field, other than the identifier field, of a wme
// on its anchor's byID list — except a preference's ^ref and ^than, which
// chain old states together. A stale preference holds no link: each
// collection removes the stale ones first. A context wme that a slot change
// replaced stays on its list, and keeps its old value accessible, until the
// decision's match has run; decide unlinks it then, so the old value is
// collected a decision later.
//
// Every symbol keeps the number of links into it. Only an object that lost
// a link since the last collection, whose goal was popped, or that gained
// its first anchored wme can have become inaccessible, and only objects
// those candidates reach without passing a root can have gone with them.
// A collection takes that scope and counts the links its members hold on
// one another. A member with more links than that has one from outside,
// and everything outside is accessible, so the member is accessible, and
// so is all the scope reaches from it. The rest is garbage. The work is the
// scope's, not working memory's.

// symGC is one symbol's garbage-collection state.
type symGC struct {
	links int32 // links into the symbol
	// During a collection: the links from scope members (-1 once the
	// symbol is known accessible), and the collection numbers at which it
	// was last looked at and last joined the scope.
	inner       int32
	seen, scope uint32
}

// gcState is an agent's garbage-collection state.
type gcState struct {
	syms  []symGC     // by symbol
	cand  []value.Sym // candidates since the last collection, repeats allowed
	epoch uint32      // collection number
	// Scratch, kept between collections.
	scope, stack []value.Sym
	rm           []*wme.WME
}

// at returns s's state, growing the table to hold it. The pointer is valid
// until the next call that grows the table.
func (g *gcState) at(s value.Sym) *symGC {
	if int(s) >= len(g.syms) {
		g.syms = append(g.syms, make([]symGC, max(int(s)+1, 2*len(g.syms), 1024)-len(g.syms))...)
	}
	return &g.syms[s]
}

// linkAt returns the symbol w's field i links to, or NilSym.
func (a *Agent) linkAt(w *wme.WME, i int) value.Sym {
	if w.Class == a.k.clsPref && (i == 4 || i == 5) {
		return value.NilSym // ^ref / ^than do not keep objects alive
	}
	if f := w.Fields[i]; f.Kind == value.KindSym {
		return f.Sym
	}
	return value.NilSym
}

// list anchors w at id, appends it to id's byID list and counts its links.
// An id whose list was empty becomes a candidate.
func (a *Agent) list(id value.Sym, w *wme.WME) {
	a.anchor[w.ID] = id
	l := a.byID[id]
	if len(l) == 0 {
		a.gc.cand = append(a.gc.cand, id)
	}
	a.byID[id] = append(l, w)
	for i := 1; i < len(w.Fields); i++ {
		if t := a.linkAt(w, i); t != value.NilSym {
			a.gc.at(t).links++
		}
	}
}

// unlink removes w from its identifier's byID list; every symbol it linked
// to loses the link and becomes a candidate.
func (a *Agent) unlink(w *wme.WME) {
	id, ok := a.anchor[w.ID]
	if !ok {
		return
	}
	list := a.byID[id]
	i := slices.Index(list, w)
	switch {
	case i < 0:
		return
	case len(list) == 1:
		delete(a.byID, id)
	default:
		a.byID[id] = slices.Delete(list, i, i+1)
	}
	for i := 1; i < len(w.Fields); i++ {
		if t := a.linkAt(w, i); t != value.NilSym {
			a.gc.syms[t].links--
			a.gc.cand = append(a.gc.cand, t)
		}
	}
}

// forgetWME drops the agent's bookkeeping for a wme being removed from
// working memory, its identifier's byID entry included.
func (a *Agent) forgetWME(w *wme.WME) {
	a.unlink(w)
	delete(a.anchor, w.ID)
	delete(a.records, w.ID)
	delete(a.subst, w.ID)
}

// isRoot reports whether s is a context root: permanent, a goal, or a slot
// value of one.
func (a *Agent) isRoot(s value.Sym) bool {
	if a.permanent[s] {
		return true
	}
	for _, g := range a.goals {
		if g.id == s || slices.Contains(g.slots[:], s) {
			return true
		}
	}
	return false
}

// stale reports whether a live preference is stale: its goal is gone, or
// it is a state or operator preference not anchored to its goal's current
// state.
func (a *Agent) stale(w *wme.WME) bool {
	gID := w.Field(0).Sym
	for _, g := range a.goals {
		if g.id != gID {
			continue
		}
		cs, ref := g.slots[slotState], w.Field(4).Sym
		switch w.Field(2).Sym {
		case a.k.sOperator:
			return ref != cs
		case a.k.sState:
			return ref != cs && w.Field(1).Sym != cs
		}
		return false
	}
	return true
}

// enter adds s to the collection's scope unless it is there already, is a
// root, or anchors no wme.
func (a *Agent) enter(scope []value.Sym, s value.Sym) []value.Sym {
	g := &a.gc
	st := g.at(s)
	if st.seen == g.epoch {
		return scope
	}
	st.seen = g.epoch
	if len(a.byID[s]) == 0 || a.isRoot(s) {
		return scope
	}
	st.scope, st.inner = g.epoch, 0
	return append(scope, s)
}

// gcDeltas runs the decision's garbage collection and appends its removals
// to deltas, in time-tag order: the stale preferences, then every live wme
// anchored at an object no root reaches.
func (a *Agent) gcDeltas(deltas []wme.Delta) []wme.Delta {
	g := &a.gc
	rm := g.rm[:0]
	for _, w := range a.prefs {
		if a.inWM(w) && a.stale(w) {
			rm = append(rm, w)
			a.forgetWME(w)
		}
	}
	nStale := len(rm)

	// The scope, and the links its members hold on one another.
	g.epoch++
	scope := g.scope[:0]
	for _, c := range g.cand {
		scope = a.enter(scope, c)
	}
	g.cand = g.cand[:0]
	for i := 0; i < len(scope); i++ {
		for _, w := range a.byID[scope[i]] {
			for f := 1; f < len(w.Fields); f++ {
				if t := a.linkAt(w, f); t != value.NilSym {
					scope = a.enter(scope, t)
					if st := &g.syms[t]; st.scope == g.epoch {
						st.inner++
					}
				}
			}
		}
	}

	// Members linked from outside, and all they reach, are accessible.
	stack := g.stack[:0]
	for _, s := range scope {
		if st := &g.syms[s]; st.links > st.inner {
			st.inner = -1
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range a.byID[s] {
			for f := 1; f < len(w.Fields); f++ {
				if t := a.linkAt(w, f); t != value.NilSym {
					if st := &g.syms[t]; st.scope == g.epoch && st.inner >= 0 {
						st.inner = -1
						stack = append(stack, t)
					}
				}
			}
		}
	}

	for _, s := range scope {
		if g.syms[s].inner >= 0 {
			for _, w := range a.byID[s] {
				if a.inWM(w) {
					rm = append(rm, w)
				}
			}
		}
	}
	for _, w := range rm[nStale:] {
		a.forgetWME(w)
	}
	slices.SortFunc(rm, func(x, y *wme.WME) int { return cmp.Compare(x.TimeTag, y.TimeTag) })
	for _, w := range rm {
		deltas = append(deltas, wme.Delta{Op: wme.Remove, WME: w})
	}
	clear(rm)
	g.rm, g.scope, g.stack = rm[:0], scope[:0], stack[:0]
	return deltas
}
