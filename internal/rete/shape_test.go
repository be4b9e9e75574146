package rete

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"soarpsme/internal/ops5"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// shapeOpts returns the three network organizations, with a context and
// groups small enough that four positive CEs restructure under Bilinear
// (BilinearAuto still waits for BilinearDepth of them).
func shapeOpts() []Options {
	off := DefaultOptions()
	all := off
	all.Organization, all.ContextCEs, all.GroupCEs = Bilinear, 1, 2
	auto := all
	auto.Organization = BilinearAuto
	return []Options{off, all, auto}
}

// shapeEnv compiles src under opts one production at a time and returns
// each production's error, nil where it was accepted.
func shapeEnv(t *testing.T, src string, opts Options) (*testEnv, []*ops5.Production, []error) {
	t.Helper()
	e := &testEnv{t: t, tab: value.NewTable(), reg: wme.NewRegistry(), cs: newCS(), s: &serialSched{}, mem: wme.NewMemory()}
	e.nw = NewNetwork(e.tab, e.reg, e.cs, opts)
	prog, err := ops5.Parse(src, e.tab)
	if err != nil {
		t.Fatal(err)
	}
	for _, lit := range prog.Literalize {
		e.reg.Declare(lit.Class, lit.Attrs...)
	}
	errs := make([]error, len(prog.Productions))
	for i, p := range prog.Productions {
		_, _, errs[i] = e.nw.AddProduction(p)
	}
	return e, prog.Productions, errs
}

// padCEs makes a production long enough for BilinearAuto to restructure.
var padCEs = strings.Repeat(" (a ^x <c> ^y 9)", BilinearDepth)

// TestShapeDoesNotDecideLegality: a production is legal under every network
// shape exactly when its linear chain is, and is rejected with the same
// error. Each bad production breaks OPS5's left-to-right scoping where a
// bilinear group could not see it: the group built its negations after all
// of its positive CEs, and bound a variable without asking whether a
// negation had already used it unbound.
func TestShapeDoesNotDecideLegality(t *testing.T) {
	prod := func(name, conds string) string {
		return fmt.Sprintf("(p %s (a ^x <c>) (a ^x <c> ^y 1) %s%s --> (make o))\n", name, conds, padCEs)
	}
	src := "(literalize a x y)\n" +
		prod("good", "-(a ^y <c>) (a ^x <c> ^y <w>) (a ^x <c> ^y <w>)") +
		// <w> is a wildcard of the negation, then bound in the next group.
		prod("bound-after-negation", "-(a ^y <w>) (a ^x <c> ^y 2) (a ^x <c> ^y <w>)") +
		// <w> is bound to the negation's right, in the negation's own group.
		prod("bound-right-in-group", "-(a ^y <w>) (a ^x <c> ^y <w>) (a ^x <c> ^y 3)") +
		// A relational test on <w> before anything binds it.
		prod("predicate-before-binding", "-(a ^y > <w>) (a ^x <c> ^y <w>) (a ^x <c> ^y 3)")
	var want []string
	for _, opts := range shapeOpts() {
		e, prods, errs := shapeEnv(t, src, opts)
		got := make([]string, len(prods))
		for i, p := range prods {
			got[i] = fmt.Sprintf("%s: %v", p.Name, errs[i])
		}
		if want == nil {
			want = got
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%v network: %q\nlinear network: %q", opts.Organization, got, want)
		}
		if p := e.nw.Lookup("good"); p == nil || p.Restructured != (opts.Organization != Linear) {
			t.Fatalf("%v network: good = %+v", opts.Organization, p)
		}
	}
	for i, line := range want {
		if accepted := strings.HasSuffix(line, ": <nil>"); accepted != (i == 0) {
			t.Fatalf("linear network: %s", line)
		}
	}
}

// TestBindingsAreFirstBindings: under every shape a production's Bindings,
// which its RHS reads, locate each variable at its first binding — also
// where a restructured production binds it again in a later group to join
// the two groups.
func TestBindingsAreFirstBindings(t *testing.T) {
	src := "(literalize a x y)\n(p twice (a ^x <c>) (a ^x <c> ^y <w>) (a ^x <c> ^y 1) (a ^x <w> ^y 2) (a ^x <w> ^y 3)" +
		padCEs + " --> (make o ^v <w>))\n"
	var want map[value.Sym]Binding
	for _, opts := range shapeOpts() {
		e, _, errs := shapeEnv(t, src, opts)
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		p := e.nw.Lookup("twice")
		if p.Restructured != (opts.Organization != Linear) {
			t.Fatalf("%v network: twice restructured = %t", opts.Organization, p.Restructured)
		}
		if want == nil {
			want = p.Bindings
		} else if !maps.Equal(p.Bindings, want) {
			t.Fatalf("%v network: bindings %v, linear network %v", opts.Organization, p.Bindings, want)
		}
	}
}

// randShapeProgram generates productions of four or five positive CEs with
// negations between them, over variables bound left to right, so that
// variables cross bilinear groups. A negation may also name one of the
// next two variables to be bound, which is illegal if a CE to its right
// binds it, and a <> test on a variable still unbound is illegal too.
func randShapeProgram(rng *rand.Rand, nProds int) string {
	var b strings.Builder
	b.WriteString("(literalize ca a1 a2 a3)\n(literalize cb a1 a2 a3)\n")
	for p := 0; p < nProds; p++ {
		fmt.Fprintf(&b, "(p sp%d\n", p)
		bound := 0
		ce := func(neg bool) string {
			s := "(c" + string("ab"[rng.Intn(2)])
			for _, a := range []string{"a1", "a2", "a3"} {
				switch rng.Intn(4) {
				case 0:
					s += fmt.Sprintf(" ^%s k%d", a, 1+rng.Intn(3))
				case 1, 2:
					v := rng.Intn(bound + 1)
					if neg {
						v = rng.Intn(bound + 2)
					}
					pred := ""
					if rng.Intn(6) == 0 {
						pred = "<> "
					}
					if v == bound && !neg && pred == "" {
						bound++
					}
					s += fmt.Sprintf(" ^%s %s<v%d>", a, pred, v)
				}
			}
			return s + ")"
		}
		for i, n := 0, 4+rng.Intn(2); i < n; i++ {
			b.WriteString("  " + ce(false) + "\n")
			if rng.Intn(3) == 0 {
				b.WriteString("  -" + ce(true) + "\n")
			}
		}
		b.WriteString("  -->\n  (make out))\n")
	}
	return b.String()
}

// TestShapesAgreeOnRandomPrograms: generated productions long enough to
// restructure are rejected by the linear and the bilinear shape alike, with
// the same errors, and both networks equal the naive matcher after every
// change to working memory.
func TestShapesAgreeOnRandomPrograms(t *testing.T) {
	opts := shapeOpts()[:2]
	accepted, rejected := 0, 0
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 6800))
		src := randShapeProgram(rng, 4)
		lin, prods, linErrs := shapeEnv(t, src, opts[0])
		bil, _, bilErrs := shapeEnv(t, src, opts[1])
		var legal []*ops5.Production
		for i, p := range prods {
			if fmt.Sprint(linErrs[i]) != fmt.Sprint(bilErrs[i]) {
				t.Fatalf("trial %d: %s: linear network %v, bilinear network %v\n%s", trial, p.Name, linErrs[i], bilErrs[i], src)
			}
			if linErrs[i] == nil {
				legal = append(legal, p)
			}
		}
		accepted += len(legal)
		rejected += len(prods) - len(legal)
		envs := []*testEnv{lin, bil}
		live := make([][]*wme.WME, len(envs))
		for step := 0; step < 25; step++ {
			if n := len(live[0]); n > 8 || (n > 3 && rng.Intn(3) == 0) {
				i := rng.Intn(n)
				for k, e := range envs {
					e.remove(live[k][i])
					live[k] = slices.Delete(live[k], i, i+1)
				}
			} else {
				var kv []any
				for _, a := range []string{"a1", "a2", "a3"} {
					if rng.Intn(4) != 0 {
						kv = append(kv, a, fmt.Sprintf("k%d", 1+rng.Intn(3)))
					}
				}
				cls := "c" + string("ab"[rng.Intn(2)])
				for k, e := range envs {
					w := e.wmeOf(cls, kv...)
					e.add(w)
					live[k] = append(live[k], w)
				}
			}
			want := naiveCS(legal, nil, live[0], lin.reg)
			for k, e := range envs {
				if got := e.cs.keys(); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("trial %d step %d, %v network: CS %v, naive %v\n%s", trial, step, opts[k].Organization, got, want, src)
				}
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("%d legal and %d illegal productions generated: both kinds are needed", accepted, rejected)
	}
}
