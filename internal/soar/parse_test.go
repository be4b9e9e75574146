package soar_test

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"soarpsme/internal/engine"
	. "soarpsme/internal/soar"
	"soarpsme/internal/tasks/blocks"
	"soarpsme/internal/tasks/strips"
	"soarpsme/internal/value"
)

// symbols lists a table's names in symbol order.
func symbols(tab *value.Table) []string {
	var out []string
	for s := value.Sym(1); tab.Name(s) != ""; s++ {
		out = append(out, tab.Name(s))
	}
	return out
}

// TestConcurrentAgentsShareParse: agents of two tasks, built and solved at
// once from several goroutines, share each task's one parse and nothing
// else. Each returns the Result a solo agent of its task returns and ends
// with the solo agent's symbol table, name for name and number for number,
// so no agent interned into another's table or into the parse's; a freshly
// built agent holds no gensym and no chunk of an agent that ran before it.
func TestConcurrentAgentsShareParse(t *testing.T) {
	tasks := map[string]func() *Task{"strips": strips.Default, "blocks": blocks.Default}
	names := []string{"strips", "blocks"}
	cfg := Config{Engine: engine.DefaultConfig(), Chunking: true, MaxDecisions: 400}
	type solo struct {
		res  *Result
		syms []string
	}
	want := map[string]solo{}
	for _, name := range names {
		a, err := New(cfg, tasks[name]())
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run()
		if err != nil || !res.Halted || res.ChunksBuilt == 0 {
			t.Fatalf("%s: solo solve halted=%v chunks=%d err=%v", name, res != nil && res.Halted, res.ChunksBuilt, err)
		}
		want[name] = solo{res, symbols(a.Eng.Tab)}
	}

	const goroutines, solves = 4, 2
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*solves)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range solves {
				name := names[(g+i)%len(names)]
				a, err := New(cfg, tasks[name]())
				if err != nil {
					errs <- name + ": " + err.Error()
					return
				}
				if _, ok := a.Eng.Tab.Lookup("g*1"); ok || a.Eng.NW.Lookup("chunk-1") != nil {
					errs <- name + ": a new agent holds an earlier agent's gensym or chunk"
					return
				}
				res, err := a.Run()
				if err != nil {
					errs <- name + ": " + err.Error()
					return
				}
				if !reflect.DeepEqual(res, want[name].res) {
					errs <- name + ": the result differs from the solo agent's"
				}
				if !slices.Equal(symbols(a.Eng.Tab), want[name].syms) {
					errs <- name + ": the symbol table differs from the solo agent's"
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestRejectedSourceRejectedEveryTime: a source that does not parse, or
// whose productions do more than add wmes, fails every New, not only the
// first, and with the same error; the failure is not cached as a parse.
func TestRejectedSourceRejectedEveryTime(t *testing.T) {
	for _, src := range []string{
		"(literalize c v)\n(p broken (c ^v <x>) -->",
		"(literalize c v)\n(p bad (c ^v <x>) --> (remove 1))",
	} {
		var first string
		for i := range 3 {
			_, err := New(Config{Engine: engine.DefaultConfig()}, &Task{Name: "bad", Source: src, ProblemSpace: "p", InitialState: "s0"})
			if err == nil {
				t.Fatalf("call %d accepted %q", i, src)
			}
			if i == 0 {
				first = err.Error()
			} else if err.Error() != first {
				t.Fatalf("call %d: error %q, the first call's %q", i, err, first)
			}
		}
		if strings.Contains(src, "remove") && !strings.Contains(first, "paper §3") {
			t.Fatalf("error %q does not cite paper §3", first)
		}
	}
}

// TestParseCacheBounded: agents of more distinct sources than the cache
// holds leave it no larger than its bound, and each still solves.
func TestParseCacheBounded(t *testing.T) {
	for i := range MaxParsedTasks + 3 {
		src := "(literalize c v)\n(p fine (c ^v <x>) --> (make c ^v <x>))\n(startup (make c ^v " + strconv.Itoa(i) + "))"
		if _, err := New(Config{Engine: engine.DefaultConfig()}, &Task{Name: "n", Source: src, ProblemSpace: "p", InitialState: "s0"}); err != nil {
			t.Fatal(err)
		}
		if n := CachedParses(); n > MaxParsedTasks {
			t.Fatalf("after %d sources the cache holds %d parses, bound %d", i+1, n, MaxParsedTasks)
		}
	}
}
