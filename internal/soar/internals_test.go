package soar_test

import (
	"fmt"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/prun"
	. "soarpsme/internal/soar"
	"soarpsme/internal/tasks/blocks"
	"soarpsme/internal/tasks/eightpuzzle"
	"soarpsme/internal/tasks/hanoi"
	"soarpsme/internal/tasks/strips"
)

// TestWorkingMemoryBounded verifies the decision module's garbage
// collection (paper §3: "automatically garbage collects inaccessible
// wmes"): working memory must not grow with the length of the run, and
// neither may the agent's own bookkeeping — after every match cycle the
// byID lists hold at most one entry per anchored wme, and the preference
// index agrees with working memory.
func TestWorkingMemoryBounded(t *testing.T) {
	for _, tc := range []struct {
		name  string
		task  func() *Task
		bound int
	}{
		{"eight-puzzle", func() *Task { return eightpuzzle.Task(eightpuzzle.Scramble(20, 3)) }, 250},
		{"strips", strips.Default, 350},
		{"hanoi", hanoi.Default, 150},
	} {
		cfg := Config{Engine: engine.DefaultConfig(), Chunking: false, MaxDecisions: 250}
		a, err := New(cfg, tc.task())
		if err != nil {
			t.Fatal(err)
		}
		var bad error
		a.Eng.AfterCycle = func(*prun.CycleStats) {
			byID, anchors, err := a.CheckBookkeeping()
			if err == nil && byID > anchors {
				err = fmt.Errorf("byID holds %d entries for %d anchored wmes", byID, anchors)
			}
			if bad == nil && err != nil {
				bad = fmt.Errorf("cycle %d: %w", a.Eng.Cycles(), err)
			}
		}
		res, err := a.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Halted {
			t.Fatalf("%s: did not halt", tc.name)
		}
		if n := a.Eng.WM.Len(); n > tc.bound {
			t.Errorf("%s: WM grew to %d wmes (> %d) — GC leak", tc.name, n, tc.bound)
		}
		if bad != nil {
			t.Errorf("%s: agent bookkeeping: %v", tc.name, bad)
		}
	}
}

// TestMemoriesEmptyOfOldStates: after a long run, the match memories must
// not retain tokens for garbage-collected states.
func TestMemoriesEmptyOfOldStates(t *testing.T) {
	cfg := Config{Engine: engine.DefaultConfig(), Chunking: false, MaxDecisions: 250}
	a, err := New(cfg, hanoi.Task(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	left, right := a.Eng.NW.Mem.Entries()
	// Entries scale with live WM (plus per-node duplication), not with the
	// number of states visited (15 moves × ~20 wmes/state would be >300
	// retained rights if GC leaked).
	wm := a.Eng.WM.Len()
	if right > wm*25 {
		t.Errorf("right memory holds %d entries for %d wmes — old state retained", right, wm)
	}
	if left > 6000 {
		t.Errorf("left memory unexpectedly large: %d", left)
	}
}

// TestMaxGoalDepthBounds: a task whose subgoals cannot make progress must
// stop at the goal-depth bound (8) instead of descending forever.
func TestMaxGoalDepthBounds(t *testing.T) {
	// Minimal stuck task: a problem space with two operators proposed but
	// no selection knowledge at all — the tie subgoal has no productions,
	// so its slots impasse in turn (no-change), recursing.
	task := &Task{
		Name: "stuck",
		Source: `
(literalize thing id)
(literalize op id v)
(startup (make thing ^id s0))
(p propose-a
  (context ^goal-id <g> ^slot problem-space ^value stuck)
  (context ^goal-id <g> ^slot state ^value <s>)
  -->
  (make op ^id op-a ^v 1)
  (make preference ^goal-id <g> ^object op-a ^role operator ^kind acceptable ^ref <s>))
(p propose-b
  (context ^goal-id <g> ^slot problem-space ^value stuck)
  (context ^goal-id <g> ^slot state ^value <s>)
  -->
  (make op ^id op-b ^v 2)
  (make preference ^goal-id <g> ^object op-b ^role operator ^kind acceptable ^ref <s>))
`,
		ProblemSpace: "stuck",
		InitialState: "s0",
	}
	cfg := Config{Engine: engine.DefaultConfig(), MaxDecisions: 100}
	a, err := New(cfg, task)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted {
		t.Fatalf("stuck task halted?!")
	}
	// The run must end at the depth bound well before MaxDecisions.
	if res.Decisions >= 100 {
		t.Fatalf("depth bound did not stop the descent: %d decisions", res.Decisions)
	}
}

// TestOperatorDecisionsCounted checks the move counter used by the task
// tests.
func TestOperatorDecisionsCounted(t *testing.T) {
	cfg := Config{Engine: engine.DefaultConfig(), MaxDecisions: 300}
	a, err := New(cfg, hanoi.Task(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.OperatorDecisions != 7 {
		t.Fatalf("3-disk hanoi: %d operator decisions, want 7", res.OperatorDecisions)
	}
}

// TestChunksAreRealProductions: the chunks built during a run re-parse
// through the printer and re-compile into a fresh network.
func TestChunksAreRealProductions(t *testing.T) {
	cfg := Config{Engine: engine.DefaultConfig(), Chunking: true, MaxDecisions: 200}
	a, err := New(cfg, hanoi.Task(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksBuilt == 0 {
		t.Fatalf("no chunks")
	}
	fresh, err := New(Config{Engine: engine.DefaultConfig(), MaxDecisions: 10}, hanoi.Task(4))
	if err != nil {
		t.Fatal(err)
	}
	n, err := fresh.AdoptChunks(a)
	if err != nil {
		t.Fatalf("chunks do not recompile: %v", err)
	}
	if n != res.ChunksBuilt {
		t.Fatalf("recompiled %d of %d chunks", n, res.ChunksBuilt)
	}
}

// TestPromotionMakesSubgoalStateAccessible: in the blocks world the new
// state is constructed at the subgoal level and becomes a result only when
// the state preference (a supergoal wme) references it — the architecture
// must promote the whole object so it survives subgoal removal.
func TestPromotionMakesSubgoalStateAccessible(t *testing.T) {
	cfg := Config{Engine: engine.DefaultConfig(), MaxDecisions: 200}
	a, err := New(cfg, blocks.Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatalf("did not solve: %+v", res)
	}
	// The final state's on-facts must be live despite having been created
	// under a (long destroyed) application subgoal.
	onCls, _ := a.Eng.Tab.Lookup("on")
	live := 0
	for _, w := range a.Eng.WM.All() {
		if w.Class == onCls {
			live++
		}
	}
	if live < 3 {
		t.Fatalf("promoted state content missing: %d on-facts", live)
	}
}
