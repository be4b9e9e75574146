// Package conflict implements the conflict set and OPS5 conflict
// resolution. The set receives instantiation insertions and retractions
// from the Rete P nodes (concurrently, during match) and supports two
// consumers: OPS5's select-one-and-fire loop with the LEX and MEA
// strategies, and Soar's fire-everything elaboration cycles, which drain
// all newly added instantiations at quiescence (paper §3).
package conflict

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"soarpsme/internal/ops5"
	"soarpsme/internal/rete"
	"soarpsme/internal/wme"
)

// Instantiation is one production match: the production and the wmes that
// satisfied its positive CEs, ordered by CE.
type Instantiation struct {
	Prod *rete.Production
	Tok  *rete.Token
	WMEs []*wme.WME

	// fired is refraction: Select has returned this instantiation, and will
	// not again. It lives and dies with the object — a retracted match takes
	// it along, so the same wme combination fires again if re-derived (OPS5
	// semantics), and a recovered cycle keeps it because EndRecovery keeps the
	// pre-cycle object of every match the replay re-derives. Guarded by the
	// set's mutex.
	fired bool
}

// TimeTags returns the instantiation's wme time tags sorted descending
// (the LEX recency ordering key).
func (in *Instantiation) TimeTags() []uint64 {
	tags := make([]uint64, len(in.WMEs))
	for i, w := range in.WMEs {
		tags[i] = w.TimeTag
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] > tags[j] })
	return tags
}

// Strategy is an OPS5 conflict-resolution strategy.
type Strategy uint8

// LEX orders by recency of all time tags then specificity; MEA first
// compares the recency of the wme matching the first CE.
const (
	LEX Strategy = iota
	MEA
)

// ParseStrategy converts the ops5 source form.
func ParseStrategy(s string) Strategy {
	if s == "mea" {
		return MEA
	}
	return LEX
}

// String returns the ops5 source form (the inverse of ParseStrategy).
func (s Strategy) String() string {
	if s == MEA {
		return "mea"
	}
	return "lex"
}

type instKey struct {
	prod *rete.Production
	hash uint64
}

// Set is the conflict set. It implements rete.ConflictListener.
type Set struct {
	mu    sync.Mutex
	insts map[instKey][]*Instantiation
	size  int

	// Soar elaboration support: instantiations added/retracted since the
	// last Drain.
	added     []*Instantiation
	retracted []*Instantiation
}

// New returns an empty conflict set.
func New() *Set {
	return &Set{insts: make(map[instKey][]*Instantiation)}
}

var _ rete.ConflictListener = (*Set)(nil)

// Insert adds an instantiation (called by P nodes; concurrency-safe).
func (s *Set) Insert(p *rete.Production, t *rete.Token) {
	in := &Instantiation{Prod: p, Tok: t, WMEs: t.WMEs()}
	k := instKey{p, t.Hash()}
	s.mu.Lock()
	s.insts[k] = append(s.insts[k], in)
	s.size++
	s.added = append(s.added, in)
	s.mu.Unlock()
}

// Retract removes an instantiation, and its refraction with it.
func (s *Set) Retract(p *rete.Production, t *rete.Token) {
	s.mu.Lock()
	if in := s.matchOut(s.insts, instKey{p, t.Hash()}, t); in != nil {
		s.size--
		s.retracted = append(s.retracted, in)
	}
	s.mu.Unlock()
}

// Len returns the number of live instantiations.
func (s *Set) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// All returns the live instantiations (unordered).
func (s *Set) All() []*Instantiation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Instantiation, 0, s.size)
	for _, list := range s.insts {
		out = append(out, list...)
	}
	return out
}

// Drain returns and clears the instantiations added and retracted since
// the previous Drain — the input to one Soar elaboration-cycle firing.
// An instantiation both added and retracted within the window was a
// transient of parallel match (e.g. a token passed a negation before its
// blocking pair arrived); the pair annihilates and neither is returned.
func (s *Set) Drain() (added, retracted []*Instantiation) {
	s.mu.Lock()
	rawAdded, rawRetracted := s.added, s.retracted
	s.added, s.retracted = nil, nil
	s.mu.Unlock()
	if len(rawRetracted) == 0 {
		return rawAdded, nil
	}
	dead := make(map[*Instantiation]bool, len(rawRetracted))
	for _, in := range rawRetracted {
		dead[in] = true
	}
	for _, in := range rawAdded {
		if dead[in] {
			dead[in] = false // consume the pair
			continue
		}
		added = append(added, in)
	}
	for _, in := range rawRetracted {
		if v, ok := dead[in]; ok && !v {
			delete(dead, in)
			continue
		}
		retracted = append(retracted, in)
	}
	return
}

// Mark is a journal position taken before a match cycle; if the cycle is
// poisoned, BeginRecovery(mark) undoes the cycle's conflict-set effects.
// Insert and Retract each append exactly one journal record, so the two
// lengths identify every mutation made after the mark.
type Mark struct {
	added, retracted int
}

// Mark returns the current journal position.
func (s *Set) Mark() Mark {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Mark{added: len(s.added), retracted: len(s.retracted)}
}

// Recovery is the in-progress state of a poisoned-cycle rollback, returned
// by BeginRecovery and consumed by EndRecovery.
type Recovery struct {
	mark Mark
	prev map[instKey][]*Instantiation // live set as of the mark
}

// BeginRecovery rolls the conflict set back to its state at m and prepares
// it for a full serial replay of working memory. The poisoned cycle's
// journal suffix is undone — retract records re-inserted first, then add
// records removed, so an instantiation both added and retracted within the
// cycle nets out absent — and the live set is parked in the returned
// Recovery while an empty one accepts the replay's insertions. A fired
// instantiation the poisoned cycle retracted comes back here as the object it
// was, so it is still fired if the replay re-derives it.
//
// Between BeginRecovery and EndRecovery the set must receive P-node calls
// only from the replay (single-threaded, at quiescence).
func (s *Set) BeginRecovery(m Mark) *Recovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, in := range s.retracted[m.retracted:] {
		k := instKey{in.Prod, in.Tok.Hash()}
		s.insts[k] = append(s.insts[k], in)
		s.size++
	}
	for _, in := range s.added[m.added:] {
		k := instKey{in.Prod, in.Tok.Hash()}
		list := s.insts[k]
		for i, cand := range list {
			if cand == in {
				list[i] = list[len(list)-1]
				list = list[:len(list)-1]
				s.size--
				break
			}
		}
		if len(list) == 0 {
			delete(s.insts, k)
		} else {
			s.insts[k] = list
		}
	}
	s.added = s.added[:m.added]
	s.retracted = s.retracted[:m.retracted]
	rec := &Recovery{mark: m, prev: s.insts}
	s.insts = make(map[instKey][]*Instantiation, len(rec.prev))
	s.size = 0
	return rec
}

// EndRecovery reconciles the replay's insertions against the pre-cycle
// live set so the next Drain reports exactly the cycle's true effect:
//
//   - a replayed match also present before the cycle keeps its original
//     *Instantiation (pointer identity, and with it refraction, survives
//     recovery) and produces no journal record;
//   - a replayed match with no pre-cycle counterpart stays journalled as
//     added — it is the cycle's genuine contribution;
//   - a pre-cycle match the replay did not re-derive was genuinely
//     retracted by the cycle's wme changes: it is journalled as retracted,
//     exactly as a live Retract would.
func (s *Set) EndRecovery(rec *Recovery) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.added[:rec.mark.added]
	for _, in := range s.added[rec.mark.added:] {
		k := instKey{in.Prod, in.Tok.Hash()}
		old := s.matchOut(rec.prev, k, in.Tok)
		if old == nil {
			kept = append(kept, in)
			continue
		}
		// Seen before the cycle: restore the original object so holders of
		// the old pointer stay coherent, and report nothing.
		list := s.insts[k]
		for i, cand := range list {
			if cand == in {
				list[i] = old
				break
			}
		}
	}
	s.added = kept
	for _, list := range rec.prev {
		// Not re-derived: the cycle retracted them.
		s.retracted = append(s.retracted, list...)
	}
}

// matchOut removes and returns the instantiation equal to t under key k in
// m, or nil (caller holds s.mu).
func (s *Set) matchOut(m map[instKey][]*Instantiation, k instKey, t *rete.Token) *Instantiation {
	list := m[k]
	for i, in := range list {
		if in.Tok.Equal(t) {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			if len(list) == 0 {
				delete(m, k)
			} else {
				m[k] = list
			}
			return in
		}
	}
	return nil
}

// FiredEntry is one refraction record in portable form: the production
// name plus the time tags of the matched wmes in CE order. Only a live
// instantiation can be fired, so the pair identifies it on any engine whose
// working memory carries the same time tags.
type FiredEntry struct {
	Prod string   `json:"prod"`
	Tags []uint64 `json:"tags"`
}

// ExportFired returns the refraction memory as portable entries, sorted
// (production name, then tags) for deterministic snapshots.
func (s *Set) ExportFired() []FiredEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []FiredEntry
	for _, list := range s.insts {
		for _, in := range list {
			if !in.fired {
				continue
			}
			tags := make([]uint64, len(in.WMEs))
			for i, w := range in.WMEs {
				tags[i] = w.TimeTag
			}
			out = append(out, FiredEntry{Prod: in.Prod.Name, Tags: tags})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prod != out[j].Prod {
			return out[i].Prod < out[j].Prod
		}
		return slices.Compare(out[i].Tags, out[j].Tags) < 0
	})
	return out
}

// RestoreFired re-marks refraction from exported entries by matching them
// against the live instantiations (which a snapshot restore re-derives via
// serial replay before calling this). An entry with no live counterpart
// means the snapshot is inconsistent.
func (s *Set) RestoreFired(entries []FiredEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		in := s.unfired(e)
		if in == nil {
			return fmt.Errorf("conflict: refraction entry %s %v has no live instantiation", e.Prod, e.Tags)
		}
		in.fired = true
	}
	return nil
}

// unfired returns a live instantiation of e's production over e's time tags
// that has not fired, or nil (caller holds s.mu).
func (s *Set) unfired(e FiredEntry) *Instantiation {
	sameTag := func(w *wme.WME, tag uint64) bool { return w.TimeTag == tag }
	for k, list := range s.insts {
		if k.prod.Name != e.Prod {
			continue
		}
		for _, in := range list {
			if !in.fired && slices.EqualFunc(in.WMEs, e.Tags, sameTag) {
				return in
			}
		}
	}
	return nil
}

// ResetJournal clears the added/retracted journal without touching the
// live set or its refraction. A snapshot restore calls it after serial
// replay so the rebuilt matches are not re-reported by the next Drain.
func (s *Set) ResetJournal() {
	s.mu.Lock()
	s.added, s.retracted = nil, nil
	s.mu.Unlock()
}

// Select applies conflict resolution: refraction, then the strategy's
// recency ordering, then specificity. It returns nil when no unfired
// instantiation remains, and marks the winner as fired.
func (s *Set) Select(strat Strategy) *Instantiation {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *Instantiation
	for _, list := range s.insts {
		for _, in := range list {
			if !in.fired && (best == nil || better(in, best, strat)) {
				best = in
			}
		}
	}
	if best != nil {
		best.fired = true
	}
	return best
}

// better reports whether a dominates b under the strategy.
func better(a, b *Instantiation, strat Strategy) bool {
	if strat == MEA {
		var at, bt uint64
		if len(a.WMEs) > 0 {
			at = a.WMEs[0].TimeTag
		}
		if len(b.WMEs) > 0 {
			bt = b.WMEs[0].TimeTag
		}
		if at != bt {
			return at > bt
		}
	}
	ta, tb := a.TimeTags(), b.TimeTags()
	n := len(ta)
	if len(tb) < n {
		n = len(tb)
	}
	for i := 0; i < n; i++ {
		if ta[i] != tb[i] {
			return ta[i] > tb[i]
		}
	}
	if len(ta) != len(tb) {
		return len(ta) > len(tb)
	}
	sa, sb := Specificity(a.Prod.AST), Specificity(b.Prod.AST)
	if sa != sb {
		return sa > sb
	}
	// Full tie (same recency, same specificity): OPS5 allows an arbitrary
	// pick, but an arbitrary pick must still be deterministic — Select
	// iterates a map, so without this the winner would vary run to run.
	// Later-compiled production wins (monotone P-node IDs).
	return a.Prod.PNode.ID > b.Prod.PNode.ID
}

// Specificity counts the attribute tests in a production's LHS (the OPS5
// tie-breaker).
func Specificity(p *ops5.Production) int {
	n := 0
	count := func(ce *ops5.CE) {
		n++ // class test
		for _, at := range ce.Tests {
			n += len(at.Tests)
		}
	}
	for _, ci := range p.LHS {
		switch ci.Kind {
		case ops5.CondPos, ops5.CondNeg:
			count(ci.CE)
		case ops5.CondNCC:
			for _, ce := range ci.Sub {
				count(ce)
			}
		}
	}
	return n
}
