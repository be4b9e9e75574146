package rete

import (
	"fmt"
	"sort"
	"testing"

	"soarpsme/internal/ops5"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

const bilinProg = `
(literalize g id)
(literalize s g v)
(literalize o s name type)
(p base (g ^id <g>) (s ^g <g> ^v <s>) --> (make out0))
`

const bilinChunk = `
(p bigq
  (g ^id <g>)
  (s ^g <g> ^v <s>)
  (o ^s <s> ^name o1 ^type robot)
  (o ^s <s> ^name o2 ^type door)
  (o ^s <s> ^name o3 ^type door)
  (o ^s <s> ^name o4 ^type box)
  (o ^s <s> ^name o5 ^type box)
  -->
  (make outq))
`

// runtimeAddWithUpdate adds a production at run time and performs the full
// state-update cycle through the serial scheduler.
func runtimeAddWithUpdate(t *testing.T, e *testEnv, src string) {
	t.Helper()
	ast, err := ops5.ParseProduction(src, e.tab)
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := e.nw.AddProduction(ast)
	if err != nil {
		t.Fatal(err)
	}
	e.update(info)
}

func bilinWMEs(e *testEnv) []*wme.WME {
	return []*wme.WME{
		e.wmeOf("g", "id", "g1"),
		e.wmeOf("s", "g", "g1", "v", "s1"),
		e.wmeOf("o", "s", "s1", "name", "o1", "type", "robot"),
		e.wmeOf("o", "s", "s1", "name", "o2", "type", "door"),
		e.wmeOf("o", "s", "s1", "name", "o3", "type", "door"),
		e.wmeOf("o", "s", "s1", "name", "o4", "type", "box"),
		e.wmeOf("o", "s", "s1", "name", "o5", "type", "box"),
	}
}

// TestBilinearRuntimeAddition: a production big enough for the bilinear
// organization is added at run time onto a loaded WM; the update must
// build the same instantiations as an up-front compile.
func TestBilinearRuntimeAddition(t *testing.T) {
	opts := DefaultOptions()
	opts.Organization = Bilinear
	opts.ContextCEs = 2
	opts.GroupCEs = 2

	// Reference: everything compiled up front.
	ref := newEnvOpts(t, bilinProg+bilinChunk, opts)
	for _, w := range bilinWMEs(ref) {
		ref.add(w)
	}

	// Candidate: bigq added at run time after the wmes.
	cand := newEnvOpts(t, bilinProg, opts)
	for _, w := range bilinWMEs(cand) {
		cand.add(w)
	}
	runtimeAddWithUpdate(t, cand, bilinChunk)

	rk, ck := ref.cs.keys(), cand.cs.keys()
	sort.Strings(rk)
	sort.Strings(ck)
	if fmt.Sprint(rk) != fmt.Sprint(ck) {
		t.Fatalf("bilinear runtime addition diverged:\n up-front: %v\n  runtime: %v", rk, ck)
	}
	// Sanity: bigq actually matched.
	found := false
	for _, k := range ck {
		if len(k) > 4 && k[:4] == "bigq" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bigq never matched: %v", ck)
	}
	if n := cand.nw.Mem.Tombstones(); n != 0 {
		t.Fatalf("tombstones after update: %d", n)
	}

	// Deletions still retract through the updated bilinear structure.
	// (Remove one door from each environment and compare again.)
	for _, env := range []*testEnv{ref, cand} {
		var door *wme.WME
		oCls := env.tab.Intern("o")
		for _, w := range env.mem.All() {
			if w.Class == oCls && env.tab.Name(w.Field(1).Sym) == "o2" {
				door = w
			}
		}
		if door == nil {
			t.Fatal("door wme not found")
		}
		env.remove(door)
	}
	rk, ck = ref.cs.keys(), cand.cs.keys()
	if fmt.Sprint(rk) != fmt.Sprint(ck) {
		t.Fatalf("post-delete divergence:\n up-front: %v\n  runtime: %v", rk, ck)
	}
}

// TestBilinearExcise: removing a bilinear production cleans up its pair
// joins and state.
func TestBilinearExcise(t *testing.T) {
	opts := DefaultOptions()
	opts.Organization = Bilinear
	opts.ContextCEs = 2
	opts.GroupCEs = 2
	e := newEnvOpts(t, bilinProg+bilinChunk, opts)
	for _, w := range bilinWMEs(e) {
		e.add(w)
	}
	if len(e.cs.keys()) < 2 {
		t.Fatalf("setup: %v", e.cs.keys())
	}
	if err := e.nw.RemoveProduction("bigq"); err != nil {
		t.Fatal(err)
	}
	for _, k := range e.cs.keys() {
		if len(k) > 4 && k[:4] == "bigq" {
			t.Fatalf("bigq instantiation survived excise: %v", e.cs.keys())
		}
	}
	// The base production still works on new wmes.
	g2 := e.wmeOf("g", "id", "g2")
	s2 := e.wmeOf("s", "g", "g2", "v", "s2")
	e.add(g2)
	e.add(s2)
	found := false
	for _, k := range e.cs.keys() {
		if k == fmt.Sprintf("base[%d %d]", g2.ID, s2.ID) {
			found = true
		}
	}
	if !found {
		t.Fatalf("base broken after bilinear excise: %v", e.cs.keys())
	}
}

// TestBilinearPairTokenDeletionDeep exercises delete propagation through
// multiple chained pair joins (three groups).
func TestBilinearPairTokenDeletionDeep(t *testing.T) {
	opts := DefaultOptions()
	opts.Organization = Bilinear
	opts.ContextCEs = 1
	opts.GroupCEs = 2
	e := newEnvOpts(t, `
(literalize g id)
(literalize f g k v)
(p deep
  (g ^id <g>)
  (f ^g <g> ^k a ^v <va>)
  (f ^g <g> ^k b ^v <va>)
  (f ^g <g> ^k c ^v <vc>)
  (f ^g <g> ^k d ^v <vc>)
  (f ^g <g> ^k e ^v <ve>)
  (f ^g <g> ^k h ^v <ve>)
  -->
  (make out))
`, opts)
	g := e.wmeOf("g", "id", "g1")
	ws := []*wme.WME{g}
	for _, k := range []string{"a", "b", "c", "d", "e", "h"} {
		v := "x"
		if k == "c" || k == "d" {
			v = "y"
		}
		if k == "e" || k == "h" {
			v = "z"
		}
		ws = append(ws, e.wmeOf("f", "g", "g1", "k", k, "v", v))
	}
	for _, w := range ws {
		e.add(w)
	}
	if len(e.cs.keys()) != 1 {
		t.Fatalf("deep bilinear did not match: %v", e.cs.keys())
	}
	// Remove a middle-group wme: full retraction.
	e.remove(ws[3]) // k=c
	e.wantCS()
	// Re-add: back.
	e.add(e.wmeOf("f", "g", "g1", "k", "c", "v", "y"))
	if len(e.cs.keys()) != 1 {
		t.Fatalf("re-add failed: %v", e.cs.keys())
	}
	if l, r := e.nw.Mem.Entries(); l == 0 || r == 0 {
		t.Fatalf("memories unexpectedly empty: %d %d", l, r)
	}
}

var _ = value.Nil

// TestBilinearInGroupNegation: a negation whose variables are resolvable
// within its group stays in the group chain (groupScope.place places it), while a
// cross-group negation defers to the combined line — both must match
// correctly.
func TestBilinearInGroupNegation(t *testing.T) {
	opts := DefaultOptions()
	opts.Organization = Bilinear
	opts.ContextCEs = 1
	opts.GroupCEs = 2
	src := `
(literalize g id)
(literalize f g k v)
(literalize blockv v)
(p negs
  (g ^id <g>)
  (f ^g <g> ^k a ^v <va>)
  -(blockv ^v <va>)
  (f ^g <g> ^k b ^v <vb>)
  (f ^g <g> ^k c ^v <vc>)
  -(blockv ^v <vc>)
  (f ^g <g> ^k d ^v <vb>)
  -->
  (make out))
`
	lin := newTestEnv(t, src)
	bil := newEnvOpts(t, src, opts)
	for _, env := range []*testEnv{lin, bil} {
		ws := []*wme.WME{
			env.wmeOf("g", "id", "g1"),
			env.wmeOf("f", "g", "g1", "k", "a", "v", "x"),
			env.wmeOf("f", "g", "g1", "k", "b", "v", "y"),
			env.wmeOf("f", "g", "g1", "k", "c", "v", "z"),
			env.wmeOf("f", "g", "g1", "k", "d", "v", "y"),
		}
		for _, w := range ws {
			env.add(w)
		}
		if len(env.cs.keys()) != 1 {
			t.Fatalf("base match failed: %v", env.cs.keys())
		}
		// Blocking the first group's negation retracts.
		bl := env.wmeOf("blockv", "v", "x")
		env.add(bl)
		if len(env.cs.keys()) != 0 {
			t.Fatalf("in-group negation did not block: %v", env.cs.keys())
		}
		env.remove(bl)
		// Blocking the later negation also retracts.
		bl2 := env.wmeOf("blockv", "v", "z")
		env.add(bl2)
		if len(env.cs.keys()) != 0 {
			t.Fatalf("second negation did not block: %v", env.cs.keys())
		}
		env.remove(bl2)
		if len(env.cs.keys()) != 1 {
			t.Fatalf("unblock failed: %v", env.cs.keys())
		}
	}
}
