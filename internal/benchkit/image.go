package benchkit

import (
	"runtime"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/tasks/cypress"
)

// coldStartBench measures session cold-start for the default cypress
// program (196 productions). compile is the pre-image path every create
// used to pay: parse, declare, build the full rete, run startup. warm is
// the shared-image path: the topology is compiled once outside the timer
// and each iteration only stamps out per-session state (memories,
// counters, conflict set) and runs startup — the serving layer's create
// cost once the image cache is hot.
func coldStartBench(warm bool) func(b *testing.B) {
	return func(b *testing.B) {
		sys := cypress.Generate(cypress.Params{})
		ecfg := engine.DefaultConfig()
		var img *engine.ProgramImage
		if warm {
			var err error
			img, err = engine.CompileProgram(sys.Source, ecfg.Rete)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var e *engine.Engine
			if warm {
				e = engine.NewFromImage(img, ecfg)
				if err := e.RunStartup(); err != nil {
					b.Fatal(err)
				}
			} else {
				e = engine.New(ecfg)
				if err := e.LoadProgram(sys.Source); err != nil {
					b.Fatal(err)
				}
			}
			if e.CS == nil {
				b.Fatal("no conflict set")
			}
		}
	}
}

// residentBytesBench measures per-session heap residency for a fleet of
// live cypress sessions: owned gives every session its own compiled
// network (the pre-image layout), shared stamps all of them onto one
// compiled image. Reported extra: bytes/session of heap kept live by the
// last fleet after a GC, the number that bounds how many sessions fit in
// a box.
func residentBytesBench(shared bool) func(b *testing.B) {
	return func(b *testing.B) {
		sys := cypress.Generate(cypress.Params{})
		ecfg := engine.DefaultConfig()
		var img *engine.ProgramImage
		if shared {
			var err error
			img, err = engine.CompileProgram(sys.Source, ecfg.Rete)
			if err != nil {
				b.Fatal(err)
			}
		}
		const fleet = 8
		keep := make([]*engine.Engine, fleet)
		mkFleet := func() {
			for j := range keep {
				if shared {
					e := engine.NewFromImage(img, ecfg)
					if err := e.RunStartup(); err != nil {
						b.Fatal(err)
					}
					keep[j] = e
				} else {
					e := engine.New(ecfg)
					if err := e.LoadProgram(sys.Source); err != nil {
						b.Fatal(err)
					}
					keep[j] = e
				}
			}
		}
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mkFleet()
		}
		b.StopTimer()
		// The final fleet (and, for shared, its one image) is all that
		// survives this GC; the delta over the empty baseline is what the
		// fleet keeps resident.
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		resident := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		if resident < 0 {
			resident = 0
		}
		b.ReportMetric(float64(resident)/fleet, "bytes/session")
		runtime.KeepAlive(keep)
	}
}

// ImageCases is the shared-compiled-image bench: cold-start latency with
// and without a warm image cache, and resident heap per session with
// owned vs shared topologies. benchjson's gate table requires the warm
// create to beat compile-from-source by at least 5x.
func ImageCases() []Case {
	return []Case{
		{Name: "SessionColdStart/cypress/compile", Bench: coldStartBench(false)},
		{Name: "SessionColdStart/cypress/warm", Bench: coldStartBench(true)},
		{Name: "ResidentBytesPerSession/cypress/owned", Bench: residentBytesBench(false)},
		{Name: "ResidentBytesPerSession/cypress/shared", Bench: residentBytesBench(true)},
	}
}
