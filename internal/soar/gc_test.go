package soar_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"soarpsme/internal/engine"
	. "soarpsme/internal/soar"
	"soarpsme/internal/tasks/blocks"
	"soarpsme/internal/tasks/eightpuzzle"
	"soarpsme/internal/tasks/hanoi"
	"soarpsme/internal/tasks/strips"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// TestGCMatchesFullSweep checks the incremental garbage collection against
// a mark and sweep over all of working memory (the oracle in
// export_test.go): at every decision that changes a slot, on four tasks,
// with chunking off and on, at one and two match processes, the removals
// must be the same wmes in the same order.
func TestGCMatchesFullSweep(t *testing.T) {
	tasks := []struct {
		name string
		mk   func() *Task
	}{
		{"eight-puzzle", func() *Task { return eightpuzzle.Task(eightpuzzle.Scramble(20, 3)) }},
		{"strips", strips.Default},
		{"blocks", blocks.Default},
		{"hanoi", hanoi.Default},
	}
	for _, tc := range tasks {
		for _, chunking := range []bool{false, true} {
			for _, procs := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/chunking=%v/procs=%d", tc.name, chunking, procs), func(t *testing.T) {
					cfg := Config{Engine: engine.DefaultConfig(), Chunking: chunking, MaxDecisions: 300}
					cfg.Engine.Processes = procs
					a, err := New(cfg, tc.mk())
					if err != nil {
						t.Fatal(err)
					}
					collections, removed := 0, 0
					a.CheckGC(func(got, want []*wme.WME) {
						collections++
						removed += len(got)
						if !slices.Equal(got, want) && !t.Failed() {
							t.Errorf("collection %d removes %s; the full sweep %s",
								collections, timeTags(got), timeTags(want))
						}
					})
					if _, err := a.Run(); err != nil {
						t.Fatal(err)
					}
					t.Logf("%d collections removed %d wmes", collections, removed)
					if collections == 0 || removed == 0 {
						t.Fatalf("%d collections removed %d wmes: nothing was checked", collections, removed)
					}
				})
			}
		}
	}
}

func timeTags(ws []*wme.WME) string {
	var sb strings.Builder
	for _, w := range ws {
		fmt.Fprintf(&sb, " %d", w.TimeTag)
	}
	return "[" + strings.TrimSpace(sb.String()) + "]"
}

// gcAllocSource is a task whose top state holds n items, each naming an
// object of its own, and whose one production proposes two operators.
func gcAllocSource(n int) string {
	var sb strings.Builder
	sb.WriteString(`
(literalize item state obj)
(literalize op id name)
(startup
`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  (make item ^state s0 ^obj x%d)\n", i)
	}
	sb.WriteString(`)
(p propose
  (context ^goal-id <g> ^slot problem-space ^value space)
  (context ^goal-id <g> ^slot state ^value <s>)
  -->
  (bind <a>)
  (make op ^id <a> ^name a)
  (make preference ^goal-id <g> ^object <a> ^role operator ^kind acceptable ^ref <s>)
  (bind <b>)
  (make op ^id <b> ^name b)
  (make preference ^goal-id <g> ^object <b> ^role operator ^kind acceptable ^ref <s>))
`)
	return sb.String()
}

// TestGCAllocsIndependentOfWM: a decision that makes no garbage allocates
// as much with about a thousand top-level wmes as with about a hundred. The
// decision swaps the top goal's operator between the two proposed ones,
// so each collection has the replaced operator as a candidate, still held
// by its acceptable preference. A mark from the roots would visit every
// item's object and allocate with their number.
func TestGCAllocsIndependentOfWM(t *testing.T) {
	allocs := func(n int) float64 {
		task := &Task{Name: "gc-allocs", Source: gcAllocSource(n), ProblemSpace: "space", InitialState: "s0"}
		a, err := New(Config{Engine: engine.DefaultConfig()}, task)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Start(); err != nil {
			t.Fatal(err)
		}
		if err := a.Elaborate(); err != nil {
			t.Fatal(err)
		}
		var ops []value.Sym
		for _, w := range a.Preferences() {
			ops = append(ops, w.Fields[1].Sym)
		}
		if len(ops) != 2 {
			t.Fatalf("%d operators proposed, want 2", len(ops))
		}
		i := 0
		swap := func() {
			i++
			a.SelectOperator(ops[i%2])
		}
		// Past working memory's compaction cycle, so that its slices stop
		// growing.
		for range 3 * (a.Eng.WM.Len() + 64) {
			swap()
		}
		size := a.Eng.WM.Len()
		got := testing.AllocsPerRun(200, swap)
		if now := a.Eng.WM.Len(); now != size {
			t.Fatalf("%d items: working memory went from %d to %d wmes: a swap made garbage", n, size, now)
		}
		return got
	}
	small, large := allocs(100), allocs(1000)
	t.Logf("allocations per decision: %.0f at 100 items, %.0f at 1,000", small, large)
	if small != large {
		t.Errorf("a decision with no garbage allocates %.0f at 100 top-level wmes and %.0f at 1,000", small, large)
	}
}
