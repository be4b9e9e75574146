package rete

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"soarpsme/internal/ops5"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// This file cross-checks the incremental Rete matcher against a naive
// reference matcher that recomputes every production's instantiations from
// scratch over the whole working memory. Random production sets and random
// add/remove sequences are driven through both; the conflict sets must be
// identical after every change.

// naiveMatch enumerates the instantiations of prod over the wmes in wm.
func naiveMatch(prod *ops5.Production, wm []*wme.WME, reg *wme.Registry) []string {
	var out []string
	var rec func(items []*ops5.CondItem, binding map[value.Sym]value.Value, used []*wme.WME)
	rec = func(items []*ops5.CondItem, binding map[value.Sym]value.Value, used []*wme.WME) {
		if len(items) == 0 {
			ids := make([]uint64, len(used))
			for i, w := range used {
				ids[i] = w.ID
			}
			out = append(out, fmt.Sprintf("%s%v", prod.Name, ids))
			return
		}
		ci := items[0]
		switch ci.Kind {
		case ops5.CondPos:
			for _, w := range wm {
				if nb, ok := ceMatches(ci.CE, w, binding, reg); ok {
					rec(items[1:], nb, append(append([]*wme.WME{}, used...), w))
				}
			}
		case ops5.CondNeg:
			for _, w := range wm {
				if _, ok := ceMatches(ci.CE, w, binding, reg); ok {
					return // blocked
				}
			}
			rec(items[1:], binding, used)
		case ops5.CondNCC:
			if nccSatisfiable(ci.Sub, wm, binding, reg) {
				return // blocked: a consistent conjunction exists
			}
			rec(items[1:], binding, used)
		}
	}
	rec(prod.LHS, map[value.Sym]value.Value{}, nil)
	sort.Strings(out)
	return out
}

// nccSatisfiable reports whether the sub-CEs can all match consistently.
func nccSatisfiable(sub []*ops5.CE, wm []*wme.WME, binding map[value.Sym]value.Value, reg *wme.Registry) bool {
	if len(sub) == 0 {
		return true
	}
	for _, w := range wm {
		if nb, ok := ceMatches(sub[0], w, binding, reg); ok {
			if nccSatisfiable(sub[1:], wm, nb, reg) {
				return true
			}
		}
	}
	return false
}

// ceMatches tests one CE against one wme under the given bindings,
// returning the extended bindings on success.
func ceMatches(ce *ops5.CE, w *wme.WME, binding map[value.Sym]value.Value, reg *wme.Registry) (map[value.Sym]value.Value, bool) {
	if w.Class != ce.Class {
		return nil, false
	}
	nb := binding
	copied := false
	ensure := func() {
		if !copied {
			m := make(map[value.Sym]value.Value, len(binding)+2)
			for k, v := range binding {
				m[k] = v
			}
			nb = m
			copied = true
		}
	}
	for _, at := range ce.Tests {
		idx, ok := reg.FieldIndex(ce.Class, at.Attr, false)
		if !ok {
			return nil, false
		}
		fv := w.Field(idx)
		for _, t := range at.Tests {
			switch t.Kind {
			case ops5.TestConst:
				if !t.Pred.Apply(fv, t.Val) {
					return nil, false
				}
			case ops5.TestDisj:
				hit := false
				for _, d := range t.Disj {
					if fv.Equal(d) {
						hit = true
					}
				}
				if !hit {
					return nil, false
				}
			case ops5.TestVar:
				if bv, bound := nb[t.Var]; bound {
					if !t.Pred.Apply(fv, bv) {
						return nil, false
					}
				} else {
					if t.Pred != value.PredEq {
						return nil, false // builder rejects these programs
					}
					ensure()
					nb[t.Var] = fv
				}
			}
		}
	}
	return nb, true
}

// randProgram generates a random but well-formed production set.
func randProgram(rng *rand.Rand, nProds int) string {
	classes := []string{"ca", "cb", "cc"}
	attrs := []string{"a1", "a2", "a3"}
	consts := []string{"k1", "k2", "k3"}
	src := "(literalize ca a1 a2 a3)\n(literalize cb a1 a2 a3)\n(literalize cc a1 a2 a3)\n"
	for p := 0; p < nProds; p++ {
		src += fmt.Sprintf("(p rp%d\n", p)
		nPos := 1 + rng.Intn(3)
		vars := []string{}
		ce := func(allowBindNew bool) string {
			s := "(" + classes[rng.Intn(len(classes))]
			for _, a := range attrs {
				switch rng.Intn(4) {
				case 0: // constant test
					s += fmt.Sprintf(" ^%s %s", a, consts[rng.Intn(len(consts))])
				case 1: // variable
					if len(vars) > 0 && (!allowBindNew || rng.Intn(2) == 0) {
						v := vars[rng.Intn(len(vars))]
						if rng.Intn(4) == 0 {
							s += fmt.Sprintf(" ^%s <> <%s>", a, v)
						} else {
							s += fmt.Sprintf(" ^%s <%s>", a, v)
						}
					} else if allowBindNew {
						v := fmt.Sprintf("v%d", len(vars))
						vars = append(vars, v)
						s += fmt.Sprintf(" ^%s <%s>", a, v)
					}
				case 2: // disjunction
					s += fmt.Sprintf(" ^%s << %s %s >>", a, consts[rng.Intn(3)], consts[rng.Intn(3)])
				default: // no test on this attribute
				}
			}
			return s + ")"
		}
		for i := 0; i < nPos; i++ {
			src += "  " + ce(true) + "\n"
		}
		if rng.Intn(2) == 0 {
			src += "  -" + ce(false) + "\n"
		}
		if rng.Intn(4) == 0 {
			src += "  -{ " + ce(true) + " " + ce(true) + " }\n"
		}
		src += "  -->\n  (make out))\n"
	}
	return src
}

func TestReteMatchesNaiveReference(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		src := randProgram(rng, 3)
		tab := value.NewTable()
		reg := wme.NewRegistry()
		cs := newCS()
		nw := NewNetwork(tab, reg, cs, DefaultOptions())
		prog, err := ops5.Parse(src, tab)
		if err != nil {
			t.Fatalf("trial %d: parse: %v\n%s", trial, err, src)
		}
		for _, lit := range prog.Literalize {
			reg.Declare(lit.Class, lit.Attrs...)
		}
		for _, p := range prog.Productions {
			if _, _, err := nw.AddProduction(p); err != nil {
				t.Fatalf("trial %d: build: %v\n%s", trial, err, src)
			}
		}
		mem := wme.NewMemory()
		sched := &serialSched{}
		var live []*wme.WME

		mkWME := func() *wme.WME {
			classes := []value.Sym{tab.Intern("ca"), tab.Intern("cb"), tab.Intern("cc")}
			cls := classes[rng.Intn(3)]
			consts := []value.Value{tab.SymV("k1"), tab.SymV("k2"), tab.SymV("k3")}
			fields := make([]value.Value, 3)
			for i := range fields {
				if rng.Intn(4) != 0 {
					fields[i] = consts[rng.Intn(3)]
				}
			}
			return mem.Make(cls, fields)
		}
		inject := func(d wme.Delta) {
			nw.Inject(d, func(n *BetaNode, w *wme.WME, op wme.Op) {
				sched.Push(&Task{Node: n, Dir: DirRight, Op: op, W: w})
			})
			drain(nw, sched)
		}
		for step := 0; step < 30; step++ {
			if len(live) > 3 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				w := live[i]
				live = append(live[:i], live[i+1:]...)
				mem.Delete(w)
				inject(wme.Delta{Op: wme.Remove, WME: w})
			} else {
				w := mkWME()
				live = append(live, w)
				mem.Insert(w)
				inject(wme.Delta{Op: wme.Add, WME: w})
			}
			// Compare: Rete's CS vs naive enumeration.
			var want []string
			for _, p := range prog.Productions {
				want = append(want, naiveMatch(p, live, reg)...)
			}
			sort.Strings(want)
			got := cs.keys()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d step %d: CS mismatch\n rete: %v\nnaive: %v\nprogram:\n%s",
					trial, step, got, want, src)
			}
			if n := nw.Mem.Tombstones(); n != 0 {
				t.Fatalf("trial %d step %d: %d tombstones", trial, step, n)
			}
		}
	}
}

func TestReteMatchesNaiveUnderRuntimeAddition(t *testing.T) {
	// Same cross-check, but half the productions are added at run time
	// (with the state-update algorithm) after the WM is loaded.
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 100))
		src := randProgram(rng, 4)
		tab := value.NewTable()
		reg := wme.NewRegistry()
		cs := newCS()
		nw := NewNetwork(tab, reg, cs, DefaultOptions())
		prog, err := ops5.Parse(src, tab)
		if err != nil {
			t.Fatal(err)
		}
		for _, lit := range prog.Literalize {
			reg.Declare(lit.Class, lit.Attrs...)
		}
		// Build only the first half up front.
		half := len(prog.Productions) / 2
		for _, p := range prog.Productions[:half] {
			if _, _, err := nw.AddProduction(p); err != nil {
				t.Fatal(err)
			}
		}
		mem := wme.NewMemory()
		sched := &serialSched{}
		var live []*wme.WME
		consts := []value.Value{tab.SymV("k1"), tab.SymV("k2"), tab.SymV("k3")}
		classes := []value.Sym{tab.Intern("ca"), tab.Intern("cb"), tab.Intern("cc")}
		inject := func(d wme.Delta) {
			nw.Inject(d, func(n *BetaNode, w *wme.WME, op wme.Op) {
				sched.Push(&Task{Node: n, Dir: DirRight, Op: op, W: w})
			})
			drain(nw, sched)
		}
		for i := 0; i < 12; i++ {
			fields := make([]value.Value, 3)
			for j := range fields {
				if rng.Intn(4) != 0 {
					fields[j] = consts[rng.Intn(3)]
				}
			}
			w := mem.Make(classes[rng.Intn(3)], fields)
			live = append(live, w)
			mem.Insert(w)
			inject(wme.Delta{Op: wme.Add, WME: w})
		}
		// Now add the remaining productions at run time with state update.
		for _, p := range prog.Productions[half:] {
			_, info, err := nw.AddProduction(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := runUpdate(nw, sched, info, mem.All()); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		var want []string
		for _, p := range prog.Productions {
			want = append(want, naiveMatch(p, live, reg)...)
		}
		sort.Strings(want)
		if got := cs.keys(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: CS mismatch after runtime addition\n rete: %v\nnaive: %v\nprogram:\n%s",
				trial, got, want, src)
		}
	}
}

// randProgramNumeric extends the generator with integer attributes and
// relational predicates (numbers exercise Compare/Pred paths the symbolic
// generator cannot).
func randProgramNumeric(rng *rand.Rand, nProds int) string {
	src := "(literalize na a1 a2 a3)\n(literalize nb a1 a2 a3)\n"
	for p := 0; p < nProds; p++ {
		src += fmt.Sprintf("(p np%d\n", p)
		vars := []string{}
		ce := func() string {
			cls := "na"
			if rng.Intn(2) == 0 {
				cls = "nb"
			}
			s := "(" + cls
			for _, a := range []string{"a1", "a2", "a3"} {
				switch rng.Intn(5) {
				case 0:
					s += fmt.Sprintf(" ^%s %d", a, rng.Intn(4))
				case 1:
					preds := []string{">", "<", ">=", "<=", "<>"}
					s += fmt.Sprintf(" ^%s %s %d", a, preds[rng.Intn(len(preds))], rng.Intn(4))
				case 2:
					if len(vars) > 0 {
						v := vars[rng.Intn(len(vars))]
						preds := []string{"", "> ", "< ", "<> "}
						s += fmt.Sprintf(" ^%s %s<%s>", a, preds[rng.Intn(len(preds))], v)
					} else {
						v := fmt.Sprintf("w%d", len(vars))
						vars = append(vars, v)
						s += fmt.Sprintf(" ^%s <%s>", a, v)
					}
				case 3:
					v := fmt.Sprintf("w%d", len(vars))
					vars = append(vars, v)
					s += fmt.Sprintf(" ^%s <%s>", a, v)
				}
			}
			return s + ")"
		}
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			src += "  " + ce() + "\n"
		}
		if rng.Intn(2) == 0 && n > 0 {
			src += "  -" + ce() + "\n"
		}
		src += "  -->\n  (make out))\n"
	}
	return src
}

func TestReteMatchesNaiveNumeric(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 900))
		src := randProgramNumeric(rng, 3)
		tab := value.NewTable()
		reg := wme.NewRegistry()
		cs := newCS()
		nw := NewNetwork(tab, reg, cs, DefaultOptions())
		prog, err := ops5.Parse(src, tab)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		for _, lit := range prog.Literalize {
			reg.Declare(lit.Class, lit.Attrs...)
		}
		buildable := prog.Productions[:0]
		for _, p := range prog.Productions {
			if _, _, err := nw.AddProduction(p); err == nil {
				buildable = append(buildable, p)
			}
			// Predicates on unbound variables are rejected by design;
			// such generated productions are skipped consistently.
		}
		mem := wme.NewMemory()
		sched := &serialSched{}
		inject := func(d wme.Delta) {
			nw.Inject(d, func(n *BetaNode, w *wme.WME, op wme.Op) {
				sched.Push(&Task{Node: n, Dir: DirRight, Op: op, W: w})
			})
			drain(nw, sched)
		}
		var live []*wme.WME
		classes := []value.Sym{tab.Intern("na"), tab.Intern("nb")}
		for step := 0; step < 25; step++ {
			if len(live) > 4 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				w := live[i]
				live = append(live[:i], live[i+1:]...)
				mem.Delete(w)
				inject(wme.Delta{Op: wme.Remove, WME: w})
			} else {
				fields := make([]value.Value, 3)
				for j := range fields {
					if rng.Intn(5) != 0 {
						fields[j] = value.IntVal(int64(rng.Intn(4)))
					}
				}
				w := mem.Make(classes[rng.Intn(2)], fields)
				live = append(live, w)
				mem.Insert(w)
				inject(wme.Delta{Op: wme.Add, WME: w})
			}
			var want []string
			for _, p := range buildable {
				want = append(want, naiveMatch(p, live, reg)...)
			}
			sort.Strings(want)
			if got := cs.keys(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d step %d:\n rete: %v\nnaive: %v\nprogram:\n%s",
					trial, step, got, want, src)
			}
		}
	}
}
