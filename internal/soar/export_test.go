package soar

import (
	"fmt"
	"slices"

	"soarpsme/internal/chunk"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// The decision procedure's slot and impasse names, for the external tests.
const (
	SlotProblemSpace = slotProblemSpace
	SlotState        = slotState
	SlotOperator     = slotOperator

	ImpasseNone     = impasseNone
	ImpasseTie      = impasseTie
	ImpasseConflict = impasseConflict
	ImpasseNoChange = impasseNoChange
)

// CheckBookkeeping cross-checks the agent's own indexes against working
// memory at a quiescent point (after a match cycle): the preference index,
// filtered to what working memory holds, must be every live preference wme
// in time-tag order; every byID entry must be anchored at its key, and the
// only removed wmes byID may still list are the context wmes the cycle's
// slot change replaced (decide unlinks them once the cycle returns), at
// most one per slot of each goal; and every symbol's link count must be the
// links the byID lists hold. It returns the total byID entries and the
// anchored-wme count.
func (a *Agent) CheckBookkeeping() (byID, anchors int, err error) {
	var want, got []*wme.WME
	for _, w := range a.Eng.WM.All() {
		if w.Class == a.k.clsPref {
			want = append(want, w)
		}
	}
	for _, w := range a.prefs {
		if a.inWM(w) {
			got = append(got, w)
		}
	}
	if !slices.Equal(got, want) {
		return 0, 0, fmt.Errorf("preference index holds %d live wmes, working memory %d, or in another order", len(got), len(want))
	}
	replaced := 0
	for id, list := range a.byID {
		for _, w := range list {
			if a.anchor[w.ID] != id {
				return 0, 0, fmt.Errorf("byID[%s] holds wme %d, anchored elsewhere", a.fmtSym(id), w.ID)
			}
			if !a.inWM(w) {
				if w.Class != a.k.clsContext {
					return 0, 0, fmt.Errorf("byID[%s] holds removed wme %d", a.fmtSym(id), w.ID)
				}
				replaced++
			}
		}
		byID += len(list)
	}
	if replaced > int(numSlots)*len(a.goals) {
		return 0, 0, fmt.Errorf("byID holds %d replaced context wmes for %d goals", replaced, len(a.goals))
	}
	links := make([]int32, len(a.gc.syms))
	for _, list := range a.byID {
		for _, w := range list {
			for i := 1; i < len(w.Fields); i++ {
				if t := a.linkAt(w, i); t != value.NilSym {
					links[t]++
				}
			}
		}
	}
	for s, st := range a.gc.syms {
		if st.links != links[s] {
			return 0, 0, fmt.Errorf("%s counts %d links, the byID lists hold %d", a.fmtSym(value.Sym(s)), st.links, links[s])
		}
	}
	return byID, len(a.anchor), nil
}

// Builder exposes the chunk builder (for statistics).
func (a *Agent) Builder() *chunk.Builder { return a.builder }

// MaxParsedTasks is the parse cache's bound.
const MaxParsedTasks = maxParsedTasks

// CachedParses returns how many task parses the process holds.
func CachedParses() int {
	parsedTasks.mu.Lock()
	defer parsedTasks.mu.Unlock()
	return len(parsedTasks.m)
}

// fullSweep is the decision's garbage collection as a mark from the context
// roots over all of working memory and a sweep of it: the oracle the
// incremental collection (gcDeltas) must equal. It returns the wmes to
// remove, in time-tag order, and changes nothing. It reads working memory
// and the anchors, not the agent's byID lists and preference index, which
// the incremental collection keeps: a wme unlinked too early still counts
// here as long as it is in working memory.
func (a *Agent) fullSweep() []*wme.WME {
	k := a.k
	all := a.Eng.WM.All()
	byAnchor := map[value.Sym][]*wme.WME{}
	for _, w := range all {
		if anchor, ok := a.anchor[w.ID]; ok {
			byAnchor[anchor] = append(byAnchor[anchor], w)
		}
	}
	dead := map[uint64]bool{}

	// 1. Stale preferences: state/operator preferences not anchored to
	// the owning goal's current state.
	curState := map[value.Sym]value.Sym{}
	for _, g := range a.goals {
		curState[g.id] = g.slots[slotState]
	}
	for _, w := range all {
		if w.Class != k.clsPref {
			continue
		}
		gID := w.Field(0).Sym
		role := w.Field(2).Sym
		ref := w.Field(4).Sym
		cs, live := curState[gID]
		switch {
		case !live:
			dead[w.ID] = true
		case role == k.sOperator && ref != cs:
			dead[w.ID] = true
		case role == k.sState && ref != cs && w.Field(1).Sym != cs:
			dead[w.ID] = true
		}
	}

	// 2. Mark from the context roots. Preference ^ref fields do not mark
	// (they chain old states together).
	marked := map[value.Sym]bool{}
	var stack []value.Sym
	mark := func(s value.Sym) {
		if s != value.NilSym && !marked[s] {
			marked[s] = true
			stack = append(stack, s)
		}
	}
	for _, g := range a.goals {
		mark(g.id)
		for s := slotProblemSpace; s < numSlots; s++ {
			mark(g.slots[s])
		}
	}
	for s := range a.permanent {
		mark(s)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range byAnchor[id] {
			if dead[w.ID] {
				continue
			}
			for i := 1; i < len(w.Fields); i++ {
				if w.Class == k.clsPref && (i == 4 || i == 5) {
					continue // ^ref / ^than do not keep objects alive
				}
				if f := w.Fields[i]; f.Kind == value.KindSym {
					if _, isID := a.idLevel[f.Sym]; isID {
						mark(f.Sym)
					}
				}
			}
		}
	}

	// 3. Sweep wmes anchored to unmarked identifiers.
	var out []*wme.WME
	for _, w := range all {
		if anchor, ok := a.anchor[w.ID]; dead[w.ID] || ok && !marked[anchor] {
			out = append(out, w)
		}
	}
	return out
}

// CheckGC makes each garbage collection of a's decisions pass its removals
// (got) and the full sweep's of the state it started from (want) to fn.
func (a *Agent) CheckGC(fn func(got, want []*wme.WME)) {
	a.gcWrap = func(gc func([]wme.Delta) []wme.Delta, deltas []wme.Delta) []wme.Delta {
		want := a.fullSweep()
		n := len(deltas)
		deltas = gc(deltas)
		var got []*wme.WME
		for _, d := range deltas[n:] {
			if d.Op != wme.Remove {
				panic("soar: a garbage collection added a wme")
			}
			got = append(got, d.WME)
		}
		fn(got, want)
		return deltas
	}
}

// Start creates the top goal, as Run does first.
func (a *Agent) Start() error { return a.initTop() }

// Elaborate runs one elaboration phase.
func (a *Agent) Elaborate() error { return a.elaborate() }

// SelectOperator installs v in the top goal's operator slot as a decision
// does, garbage collection included.
func (a *Agent) SelectOperator(v value.Sym) { a.changeSlot(a.goals[0], slotOperator, v) }

// Preferences returns the preference wmes the agent has registered and not
// yet found gone from working memory.
func (a *Agent) Preferences() []*wme.WME { return a.prefs }
