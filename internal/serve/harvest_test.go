package serve

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/obs"
)

// TestContentionCountersExact pins the hash-line contention counters now
// that no served cycle sweeps the table for them: a /metrics scrape taken
// while sessions run is safe, a scrape of idle sessions equals the tables'
// own cumulative tallies, and a deleted session's share stays in the
// totals — what the parent's flush after every cycle added up to.
func TestContentionCountersExact(t *testing.T) {
	o := obs.New()
	srv := New(Config{Workers: 2, Processes: 2, Obs: o})
	defer srv.Close()
	acquires := o.Counter("hash_line_lock_acquires_total")
	spins := o.Counter("hash_line_lock_spins_total")
	accesses := o.Counter("hash_bucket_accesses_total")

	batches := ChopScript(IngestScript(240), 1)
	type driver struct {
		p    *fpProbe
		ids  []uint64
		next int
	}
	drive := func(d *driver, n int) {
		t.Helper()
		for ; n > 0; n-- {
			ds, err := IngestBatchJSON(batches[d.next], d.ids)
			if err != nil {
				t.Fatal(err)
			}
			res := d.p.run(fmt.Sprintf("run %d", d.next), RunRequest{Deltas: ds})
			d.ids = append(d.ids, res.Added...)
			d.next++
		}
	}
	scrape := func() {
		if err := o.Reg.WriteText(io.Discard); err != nil {
			t.Error(err)
		}
	}
	// read returns an idle engine's cumulative tallies.
	type tally struct{ spins, acquires, accesses uint64 }
	read := func(e *engine.Engine) tally {
		s, a := e.NW.Mem.LockStats()
		_, l, r := e.NW.Mem.Tallies()
		return tally{s, a, l + r}
	}
	// exact scrapes, then compares the registry with the tallies of the
	// live engines plus those a released engine had when it was released.
	exact := func(when string, released tally, live ...*engine.Engine) {
		t.Helper()
		scrape()
		want := released
		for _, e := range live {
			got := read(e)
			want = tally{want.spins + got.spins, want.acquires + got.acquires, want.accesses + got.accesses}
		}
		if got := (tally{spins.Value(), acquires.Value(), accesses.Value()}); got != want || want.accesses == 0 {
			t.Fatalf("%s: registry has %+v, tables say %+v", when, got, want)
		}
	}

	a := &driver{p: newProbe(t, srv, CreateRequest{Program: IngestProgram})}
	b := &driver{p: newProbe(t, srv, CreateRequest{Program: IngestProgram})}
	engA, engB := a.p.session().eng, b.p.session().eng

	// Scrape while both sessions match.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				scrape()
			}
		}
	}()
	drive(a, 100)
	drive(b, 60)
	close(stop)
	wg.Wait()
	exact("mid-run", tally{}, engA, engB)

	// Unscraped work on both, then A is deleted: its tail must be harvested
	// on release, because no scrape will reach it again.
	drive(a, 100)
	drive(b, 60)
	a.p.delete()
	released := read(engA)
	exact("after delete", released, engB)
	drive(b, 60)
	exact("survivor keeps counting", released, engB)
}
