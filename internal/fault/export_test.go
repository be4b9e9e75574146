package fault

import "time"

// Fired returns the number of faults injected so far.
func (in *Injector) Fired() int64 {
	if in == nil {
		return 0
	}
	return in.fired.Load()
}

// DropStealRates is a seeded schedule that only drops steals, p in 65536
// per steal visit.
func DropStealRates(p uint32) Rates { return Rates{dropSteal: p} }

// WithStalls returns in with exec visit 0, and about p in 65536 of the exec
// visits after it, stalled for d: paper-sized tasks laid over a schedule. A
// plan keeps its faults, visit 0 included if it names one; a seeded schedule
// keeps its seed and its other rates. A nil in is a schedule of stalls only.
func WithStalls(in *Injector, p uint32, d time.Duration) *Injector {
	if in == nil {
		in = Plan()
	}
	if in.plan[SiteExec] == nil {
		in.plan[SiteExec] = make(map[uint64]Action)
	}
	if _, ok := in.plan[SiteExec][0]; !ok {
		in.plan[SiteExec][0] = Action{Kind: KindStall, Delay: d}
	}
	if in.seed == 0 {
		in.seed = splitmix(1)
	}
	in.pStall, in.stallFor = p, d
	return in
}
