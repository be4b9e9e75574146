package soar

import (
	"fmt"
	"slices"

	"soarpsme/internal/chunk"
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
// most one per slot of each goal. It returns the total byID entries and the
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
	return byID, len(a.anchor), nil
}

// Builder exposes the chunk builder (for statistics).
func (a *Agent) Builder() *chunk.Builder { return a.builder }
