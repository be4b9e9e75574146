package fault

import (
	"testing"
	"time"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if a := in.Visit(SiteExec); a.Kind != KindNone {
		t.Fatalf("nil injector returned %v", a.Kind)
	}
	if in.Fired() != 0 || in.Visits(SiteExec) != 0 {
		t.Fatalf("nil injector counted something")
	}
	if s := in.String(); s != "fault: none" {
		t.Fatalf("nil String = %q", s)
	}
}

func TestPlanTargetsExactVisits(t *testing.T) {
	in := Plan(
		Fault{Site: SiteExec, Kind: KindPanic, Visit: 3},
		Fault{Site: SiteExec, Kind: KindStall, Visit: 5, Delay: time.Millisecond},
		Fault{Site: SiteSteal, Kind: KindDropSteal, Visit: 0},
	)
	var got []Kind
	for i := 0; i < 8; i++ {
		got = append(got, in.Visit(SiteExec).Kind)
	}
	for i, want := range []Kind{KindNone, KindNone, KindNone, KindPanic, KindNone, KindStall, KindNone, KindNone} {
		if got[i] != want {
			t.Fatalf("exec visit %d = %v, want %v", i, got[i], want)
		}
	}
	if a := in.Visit(SiteSteal); a.Kind != KindDropSteal {
		t.Fatalf("steal visit 0 = %v, want drop", a.Kind)
	}
	if in.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3", in.Fired())
	}
	if in.Visits(SiteExec) != 8 || in.Visits(SiteSteal) != 1 {
		t.Fatalf("Visits = %d/%d", in.Visits(SiteExec), in.Visits(SiteSteal))
	}
}

func TestPlanStallCarriesDelay(t *testing.T) {
	in := Plan(Fault{Site: SiteExec, Kind: KindStall, Visit: 0, Delay: 7 * time.Millisecond})
	if a := in.Visit(SiteExec); a.Kind != KindStall || a.Delay != 7*time.Millisecond {
		t.Fatalf("stall action = %+v", a)
	}
}

// Seeded schedules must be a pure function of (seed, site, visit): two
// injectors with the same seed agree on every visit; a different seed
// produces a different schedule.
func TestSeededDeterminism(t *testing.T) {
	const n = 100000
	r := Rates{Panic: 60, Stall: 40, dropSteal: 2000, StallFor: time.Millisecond}
	a, b := Seeded(42, r), Seeded(42, r)
	fired := 0
	for i := 0; i < n; i++ {
		x, y := a.Visit(SiteExec), b.Visit(SiteExec)
		if x != y {
			t.Fatalf("visit %d: %v != %v for same seed", i, x, y)
		}
		if x.Kind != KindNone {
			fired++
			if x.Kind == KindStall && x.Delay != time.Millisecond {
				t.Fatalf("stall without configured delay: %+v", x)
			}
			if x.Kind == KindDropSteal {
				t.Fatalf("drop-steal injected at exec site")
			}
		}
	}
	if fired == 0 {
		t.Fatalf("seeded schedule never fired in %d visits", n)
	}
	// ~100/65536 per visit: expect on the order of 150; allow a wide band.
	if fired > n/100 {
		t.Fatalf("seeded schedule fired %d/%d times — far above configured rates", fired, n)
	}
	c, d := Seeded(43, r), Seeded(42, r)
	diff := false
	for i := 0; i < n; i++ {
		if c.Visit(SiteSteal) != d.Visit(SiteSteal) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatalf("seeds 42 and 43 produced identical steal schedules over %d visits", n)
	}
}

func TestSeededSiteSeparation(t *testing.T) {
	in := Seeded(7, Rates{dropSteal: 65536}) // every steal drops, exec never fires
	for i := 0; i < 100; i++ {
		if a := in.Visit(SiteExec); a.Kind != KindNone {
			t.Fatalf("exec visit %d fired %v with only steal rates set", i, a.Kind)
		}
		if a := in.Visit(SiteSteal); a.Kind != KindDropSteal {
			t.Fatalf("steal visit %d = %v, want drop", i, a.Kind)
		}
	}
}

func TestStringSummaries(t *testing.T) {
	if s := Plan().String(); s != "fault: empty" {
		t.Fatalf("empty plan String = %q", s)
	}
	in := Plan(Fault{Site: SiteExec, Kind: KindPanic, Visit: 2})
	if s := in.String(); s == "" || s == "fault: empty" {
		t.Fatalf("plan String = %q", s)
	}
	if s := Seeded(1, DefaultRates()).String(); s == "fault: empty" {
		t.Fatalf("seeded String = %q", s)
	}
}
