package fault

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
