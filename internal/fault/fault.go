// Package fault is the deterministic fault-injection layer of the match
// pipeline. An Injector decides, at named sites inside the parallel runtime
// (internal/prun), whether the arriving worker should panic, stall, or drop
// a steal attempt. Decisions come from two sources that compose:
//
//   - an explicit Plan — "the 7th arrival at site worker.exec panics" —
//     for targeted tests of one failure mode, and
//   - a seeded pseudo-random schedule — "with seed 42, roughly 1 in 2048
//     task executions panics" — for soak-style runs (-fault-seed on the
//     CLIs).
//
// Both are deterministic in the visit index: arrival k at a site always
// receives the same action for a given plan/seed. Under parallel execution
// the mapping of visit indices onto tasks depends on the interleaving, so
// *which* task is hit varies run to run, but the fault pattern itself —
// how many faults, at which arrival counts — is reproducible.
//
// A nil *Injector is fully inert: every probe costs one pointer test. The
// recovery machinery (the serial-fallback replay in prun/engine) never
// consults the injector, so a degraded cycle always completes.
package fault

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Site names an injection point in the match pipeline.
type Site uint8

// The instrumented sites. SiteExec is probed by every worker once per task,
// just before executing it; SiteSteal is probed once per steal attempt
// (per victim probed, under the multi-queue and work-stealing policies).
const (
	SiteExec Site = iota
	SiteSteal
	numSites
)

func (s Site) String() string {
	switch s {
	case SiteExec:
		return "worker.exec"
	case SiteSteal:
		return "worker.steal"
	}
	return "?"
}

// Kind is what an injected fault does to the arriving worker.
type Kind uint8

// KindPanic makes the worker panic (exercising the runtime's recover and
// the engine's serial fallback). KindStall blocks the worker for Delay or
// until the cycle aborts, whichever is first (exercising the quiescence
// watchdog). KindDropSteal makes one steal probe fail silently (perturbing
// schedules without failing the cycle).
const (
	KindNone Kind = iota
	KindPanic
	KindStall
	KindDropSteal
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindStall:
		return "stall"
	case KindDropSteal:
		return "drop-steal"
	}
	return "none"
}

// Action is the injector's verdict for one site arrival. The zero Action
// means proceed normally.
type Action struct {
	Kind  Kind
	Delay time.Duration // KindStall only
}

// Fault is one scheduled fault: arrival number Visit (0-based) at Site
// performs Kind.
type Fault struct {
	Site  Site
	Kind  Kind
	Visit uint64
	Delay time.Duration
}

// Injector decides the action for each site arrival. Safe for concurrent
// use by all match workers; all methods are nil-safe.
type Injector struct {
	visits [numSites]atomic.Uint64
	fired  atomic.Int64
	plan   [numSites]map[uint64]Action

	// Seeded-random schedule: pXXX are per-65536 firing probabilities per
	// arrival at the relevant site (0 = never).
	seed       uint64
	pPanic     uint32
	pStall     uint32
	pDropSteal uint32
	stallFor   time.Duration
}

// Plan builds an injector from an explicit fault schedule.
func Plan(faults ...Fault) *Injector {
	in := &Injector{}
	for _, f := range faults {
		if f.Site >= numSites {
			continue
		}
		if in.plan[f.Site] == nil {
			in.plan[f.Site] = make(map[uint64]Action)
		}
		in.plan[f.Site][f.Visit] = Action{Kind: f.Kind, Delay: f.Delay}
	}
	return in
}

// Rates configures the seeded schedule: probabilities are per single site
// arrival, in units of 1/65536.
type Rates struct {
	Panic     uint32
	Stall     uint32
	dropSteal uint32
	StallFor  time.Duration
}

// DefaultRates is the CLI's -fault-seed schedule: rare panics and stalls,
// frequent dropped steals. Tuned so a multi-thousand-task run sees a
// handful of failed cycles without spending its whole life in recovery.
func DefaultRates() Rates {
	return Rates{Panic: 8, Stall: 4, dropSteal: 1024, StallFor: 2 * time.Millisecond}
}

// Seeded builds an injector whose decisions are a pure function of
// (seed, site, visit index).
func Seeded(seed int64, r Rates) *Injector {
	return &Injector{
		seed:       splitmix(uint64(seed) ^ 0x9e3779b97f4a7c15),
		pPanic:     r.Panic,
		pStall:     r.Stall,
		pDropSteal: r.dropSteal,
		stallFor:   r.StallFor,
	}
}

// splitmix is the SplitMix64 finalizer — the usual cheap avalanche.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Visit records one arrival at site and returns the action to take. The
// zero Action (KindNone) means proceed.
func (in *Injector) Visit(site Site) Action {
	if in == nil {
		return Action{}
	}
	v := in.visits[site].Add(1) - 1
	if m := in.plan[site]; m != nil {
		if a, ok := m[v]; ok {
			in.fired.Add(1)
			return a
		}
	}
	if in.seed != 0 {
		h := uint32(splitmix(in.seed^(uint64(site)<<56)^v)) & 0xffff
		var a Action
		switch site {
		case SiteExec:
			if h < in.pPanic {
				a = Action{Kind: KindPanic}
			} else if h < in.pPanic+in.pStall {
				a = Action{Kind: KindStall, Delay: in.stallFor}
			}
		case SiteSteal:
			if h < in.pDropSteal {
				a = Action{Kind: KindDropSteal}
			}
		}
		if a.Kind != KindNone {
			in.fired.Add(1)
			return a
		}
	}
	return Action{}
}

// Visits returns the arrival count recorded at site.
func (in *Injector) Visits(site Site) uint64 {
	if in == nil || site >= numSites {
		return 0
	}
	return in.visits[site].Load()
}

// String summarizes the schedule (for flag help and traces).
func (in *Injector) String() string {
	if in == nil {
		return "fault: none"
	}
	var parts []string
	for s := Site(0); s < numSites; s++ {
		for v, a := range in.plan[s] {
			parts = append(parts, fmt.Sprintf("%v@%v:%d", a.Kind, s, v))
		}
	}
	if in.seed != 0 {
		parts = append(parts, fmt.Sprintf("seeded(panic=%d stall=%d drop=%d /65536)", in.pPanic, in.pStall, in.pDropSteal))
	}
	if len(parts) == 0 {
		return "fault: empty"
	}
	return "fault: " + strings.Join(parts, " ")
}
