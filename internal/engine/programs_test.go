package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExampleProgramsRun executes every .ops program shipped under
// examples/ops with several runtime configurations.
func TestExampleProgramsRun(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "ops")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".ops") {
			continue
		}
		found++
		src, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.Processes = procs
			var out bytes.Buffer
			cfg.Output = &out
			e := New(cfg)
			if err := e.LoadProgram(string(src)); err != nil {
				t.Fatalf("%s: %v", ent.Name(), err)
			}
			fired, err := e.RunOPS5()
			if err != nil {
				t.Fatalf("%s: %v", ent.Name(), err)
			}
			if fired == 0 {
				t.Fatalf("%s: nothing fired", ent.Name())
			}
			if err := e.AuditInvariants(); err != nil {
				t.Fatalf("%s: %v", ent.Name(), err)
			}
		}
	}
	if found == 0 {
		t.Fatalf("no .ops programs found in %s", dir)
	}
}

// TestMonkeyAndBananas checks the classic demo's full plan.
func TestMonkeyAndBananas(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "ops", "monkey.ops"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	var out bytes.Buffer
	cfg.Output = &out
	e := New(cfg)
	if err := e.LoadProgram(string(src)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunOPS5(); err != nil {
		t.Fatal(err)
	}
	if !e.Halted() {
		t.Fatalf("monkey did not reach the bananas:\n%s", out.String())
	}
	text := out.String()
	wantOrder := []string{"walks", "pushes", "climbs", "grabs"}
	pos := -1
	for _, w := range wantOrder {
		i := strings.Index(text, w)
		if i < 0 || i < pos {
			t.Fatalf("plan out of order (missing %q):\n%s", w, text)
		}
		pos = i
	}
}

// TestWatchLevels verifies the OPS5-style trace output.
func TestWatchLevels(t *testing.T) {
	src := `
(literalize c v)
(startup (make c ^v 1))
(p go (c ^v 1) --> (modify 1 ^v 2) (halt))
`
	for level, wants := range map[int][]string{
		1: {";; FIRE go"},
		2: {";; FIRE go", "=>WM:", "<=WM:"},
	} {
		cfg := DefaultConfig()
		cfg.Watch = level
		var out bytes.Buffer
		cfg.Output = &out
		e := New(cfg)
		if err := e.LoadProgram(src); err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunOPS5(); err != nil {
			t.Fatal(err)
		}
		for _, w := range wants {
			if !strings.Contains(out.String(), w) {
				t.Fatalf("watch %d missing %q:\n%s", level, w, out.String())
			}
		}
	}
}
