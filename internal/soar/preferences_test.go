package soar_test

import (
	"bytes"
	"strings"
	"testing"

	"soarpsme/internal/engine"
	. "soarpsme/internal/soar"
)

// prefTask builds a one-decision task: two operators proposed, extra
// preference productions supplied by the test, and a halt production that
// records which operator was applied.
func prefTask(extra string) *Task {
	return &Task{
		Name: "pref",
		Source: `
(literalize thing id)
(literalize op id v)
(literalize applied op)
(startup (make thing ^id s0))
(p propose-a
  (context ^goal-id <g> ^slot problem-space ^value pref)
  (context ^goal-id <g> ^slot state ^value <s>)
  -->
  (make op ^id op-a ^v 1)
  (make preference ^goal-id <g> ^object op-a ^role operator ^kind acceptable ^ref <s>))
(p propose-b
  (context ^goal-id <g> ^slot problem-space ^value pref)
  (context ^goal-id <g> ^slot state ^value <s>)
  -->
  (make op ^id op-b ^v 2)
  (make preference ^goal-id <g> ^object op-b ^role operator ^kind acceptable ^ref <s>))
(p apply
  (context ^goal-id <g> ^slot operator ^value <o>)
  -->
  (make applied ^op <o>))
(p done
  (applied ^op <o>)
  -->
  (halt))
` + extra,
		ProblemSpace: "pref",
		InitialState: "s0",
	}
}

func runPref(t *testing.T, extra string) (*Agent, *Result, string) {
	t.Helper()
	var trace bytes.Buffer
	cfg := Config{Engine: engine.DefaultConfig(), MaxDecisions: 30, Trace: &trace}
	a, err := New(cfg, prefTask(extra))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	return a, res, trace.String()
}

// appliedOp returns which operator the task applied ("op-a"/"op-b"/"").
func appliedOp(a *Agent) string {
	cls, ok := a.Eng.Tab.Lookup("applied")
	if !ok {
		return ""
	}
	for _, w := range a.Eng.WM.All() {
		if w.Class == cls {
			return a.Eng.Tab.Name(w.Field(0).Sym)
		}
	}
	return ""
}

func TestBetterPreferenceResolvesTie(t *testing.T) {
	a, res, _ := runPref(t, `
(p prefer-b
  (context ^goal-id <g> ^slot problem-space ^value pref)
  (context ^goal-id <g> ^slot state ^value <s>)
  -->
  (make preference ^goal-id <g> ^object op-b ^role operator ^kind better ^than op-a ^ref <s>))
`)
	if !res.Halted {
		t.Fatalf("did not halt: %+v", res)
	}
	if got := appliedOp(a); got != "op-b" {
		t.Fatalf("better preference ignored: applied %q", got)
	}
}

func TestWorsePreferenceResolvesTie(t *testing.T) {
	a, res, _ := runPref(t, `
(p demote-b
  (context ^goal-id <g> ^slot problem-space ^value pref)
  (context ^goal-id <g> ^slot state ^value <s>)
  -->
  (make preference ^goal-id <g> ^object op-b ^role operator ^kind worse ^than op-a ^ref <s>))
`)
	if !res.Halted {
		t.Fatalf("did not halt: %+v", res)
	}
	if got := appliedOp(a); got != "op-a" {
		t.Fatalf("worse preference ignored: applied %q", got)
	}
}

func TestRejectRemovesCandidate(t *testing.T) {
	a, res, _ := runPref(t, `
(p reject-a
  (context ^goal-id <g> ^slot problem-space ^value pref)
  (context ^goal-id <g> ^slot state ^value <s>)
  -->
  (make preference ^goal-id <g> ^object op-a ^role operator ^kind reject ^ref <s>))
`)
	if !res.Halted {
		t.Fatalf("did not halt")
	}
	if got := appliedOp(a); got != "op-b" {
		t.Fatalf("reject ignored: applied %q", got)
	}
}

func TestBestDominatesBetter(t *testing.T) {
	a, res, _ := runPref(t, `
(p best-a
  (context ^goal-id <g> ^slot problem-space ^value pref)
  (context ^goal-id <g> ^slot state ^value <s>)
  -->
  (make preference ^goal-id <g> ^object op-a ^role operator ^kind best ^ref <s>))
(p prefer-b
  (context ^goal-id <g> ^slot problem-space ^value pref)
  (context ^goal-id <g> ^slot state ^value <s>)
  -->
  (make preference ^goal-id <g> ^object op-b ^role operator ^kind better ^than op-a ^ref <s>))
`)
	if !res.Halted {
		t.Fatalf("did not halt")
	}
	// Best restricts the candidate set before better/worse ordering.
	if got := appliedOp(a); got != "op-a" {
		t.Fatalf("best did not dominate: applied %q", got)
	}
}

func TestConflictImpasse(t *testing.T) {
	// Mutually-better preferences: op-a better than op-b AND op-b better
	// than op-a — a conflict impasse (paper §3's third impasse type).
	_, res, trace := runPref(t, `
(p prefer-a
  (context ^goal-id <g> ^slot problem-space ^value pref)
  (context ^goal-id <g> ^slot state ^value <s>)
  -->
  (make preference ^goal-id <g> ^object op-a ^role operator ^kind better ^than op-b ^ref <s>))
(p prefer-b
  (context ^goal-id <g> ^slot problem-space ^value pref)
  (context ^goal-id <g> ^slot state ^value <s>)
  -->
  (make preference ^goal-id <g> ^object op-b ^role operator ^kind better ^than op-a ^ref <s>))
`)
	if res.Halted {
		t.Fatalf("conflicted task should not halt")
	}
	if !strings.Contains(trace, "impasse conflict") {
		t.Fatalf("no conflict impasse in trace:\n%s", trace)
	}
}

func TestIndifferentPickIsDeterministic(t *testing.T) {
	extra := `
(p indiff
  (context ^goal-id <g> ^slot problem-space ^value pref)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o>)
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind indifferent ^ref <s>))
`
	var first string
	for i := 0; i < 3; i++ {
		a, res, _ := runPref(t, extra)
		if !res.Halted {
			t.Fatalf("did not halt")
		}
		got := appliedOp(a)
		if i == 0 {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("indifferent pick unstable: %q vs %q", got, first)
		}
	}
}
