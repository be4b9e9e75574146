package rete

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"soarpsme/internal/ops5"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// addLive compiles p into e's network and runs the §5.2 state update over the
// live wmes. It reports an error instead of failing the test, so it can run
// off the test goroutine.
func addLive(e *testEnv, p *ops5.Production, live []*wme.WME) error {
	_, info, err := e.nw.AddProduction(p)
	if err != nil {
		return err
	}
	return runUpdate(e.nw, e.s, info, live)
}

func prodNames(ps []*Production) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

func countBeta(nw *Network) int {
	n := 0
	nw.walkBeta(func(*BetaNode) { n++ })
	return n
}

// TestLayeredNetworkMatchesOwned is the layer-equivalence check: the same
// random program is built (a) whole in one owned network, (b) with its first
// k productions frozen as a base and the rest in a session layer over it,
// and (c) as a second session on that base that adds nothing. All three are
// driven through one random add/remove stream, each on its own goroutine —
// under -race that catches any write (b) makes through a base node while (c)
// matches against it. After every delta (a) and (b) must equal the naive
// matcher over the whole program and (c) over the base productions only;
// mid-stream (b) excises one of its layer productions and adds it back with
// the run-time state update, which must restore it.
func TestLayeredNetworkMatchesOwned(t *testing.T) {
	for _, share := range []bool{true, false} {
		for trial := 0; trial < 12; trial++ {
			t.Run(fmt.Sprintf("share=%t/%d", share, trial), func(t *testing.T) {
				layerTrial(t, rand.New(rand.NewSource(int64(trial)+4200)), share)
			})
		}
	}
}

func layerTrial(t *testing.T, rng *rand.Rand, share bool) {
	src := randProgram(rng, 5)
	tab := value.NewTable()
	reg := wme.NewRegistry()
	prog, err := ops5.Parse(src, tab)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	for _, lit := range prog.Literalize {
		reg.Declare(lit.Class, lit.Attrs...)
	}
	prods := prog.Productions
	// randProgram's productions rarely start alike, and a layer production
	// is spliced under a base join only where they do. Half of them
	// therefore open with the positive conditions an earlier one opens with:
	// base prefixes shared into from the layer, and layer prefixes shared
	// within it.
	for j := 1; j < len(prods); j++ {
		if rng.Intn(2) == 0 {
			continue
		}
		var prefix []*ops5.CondItem
		for _, ci := range prods[rng.Intn(j)].LHS {
			if ci.Kind != ops5.CondPos {
				break
			}
			prefix = append(prefix, ci)
		}
		prods[j].LHS = append(prefix, prods[j].LHS...)
	}
	k := 1 + rng.Intn(len(prods)-1) // both the base and the layer get at least one
	opts := DefaultOptions()
	opts.ShareBeta = share

	sess := func(mk func(cs ConflictListener) *Network) *testEnv {
		e := &testEnv{t: t, cs: newCS(), s: &serialSched{}}
		e.nw = mk(e.cs)
		e.tab, e.reg = e.nw.Tab, e.nw.Reg
		return e
	}
	a := sess(func(cs ConflictListener) *Network { return NewNetwork(tab, reg, cs, opts) })
	compiler := NewNetwork(tab, reg, nil, opts)
	for i, p := range prods {
		if _, _, err := a.nw.AddProduction(p); err != nil {
			t.Fatalf("build: %v\n%s", err, src)
		}
		if i < k {
			if _, _, err := compiler.AddProduction(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The delta stream's symbols are interned before the freeze, so that
	// every session's copy of the table holds them.
	classes := []value.Sym{tab.Intern("ca"), tab.Intern("cb"), tab.Intern("cc")}
	consts := []value.Value{tab.SymV("k1"), tab.SymV("k2"), tab.SymV("k3")}
	top := compiler.Freeze()
	overTop := func(cs ConflictListener) *Network { return NewFromTopology(top, cs, opts) }
	b, c := sess(overTop), sess(overTop)
	baseFormat := c.nw.FormatNetwork()

	// The delta stream, with the live set after each step for the reference.
	const steps = 30
	mem := wme.NewMemory()
	var live []*wme.WME
	deltas := make([]wme.Delta, steps)
	liveAt := make([][]*wme.WME, steps)
	for i := range deltas {
		if len(live) > 3 && rng.Intn(3) == 0 {
			j := rng.Intn(len(live))
			deltas[i] = wme.Delta{Op: wme.Remove, WME: live[j]}
			live = append(live[:j:j], live[j+1:]...)
		} else {
			fields := make([]value.Value, 3)
			for f := range fields {
				if rng.Intn(4) != 0 {
					fields[f] = consts[rng.Intn(3)]
				}
			}
			w := mem.Make(classes[rng.Intn(3)], fields)
			deltas[i] = wme.Delta{Op: wme.Add, WME: w}
			live = append(live, w)
		}
		liveAt[i] = live
	}
	victim := prods[k+rng.Intn(len(prods)-k)]
	exciseAfter := steps / 2

	run := func(x *testEnv, between func(step int) error) ([][]string, error) {
		got := make([][]string, steps)
		for i, d := range deltas {
			x.inject(d)
			got[i] = x.cs.keys()
			if n := x.nw.Mem.Tombstones(); n != 0 {
				return nil, fmt.Errorf("step %d: %d tombstones", i, n)
			}
			if err := between(i); err != nil {
				return nil, fmt.Errorf("step %d: %w", i, err)
			}
		}
		return got, nil
	}
	var (
		wg                  sync.WaitGroup
		gotA, gotB, gotC    [][]string
		errA, errB, errC    error
		excised             []string // (b)'s conflict set with the victim out
		builtNames, reNames []string // (b)'s productions as built / after the re-add
		builtTwo, reTwo     int
	)
	wg.Add(3)
	go func() {
		defer wg.Done()
		gotA, errA = run(a, func(int) error { return nil })
	}()
	go func() {
		defer wg.Done()
		for _, p := range prods[k:] {
			if errB = addLive(b, p, nil); errB != nil {
				return
			}
		}
		builtNames, builtTwo = prodNames(b.nw.Productions()), b.nw.TwoInputNodes()
		gotB, errB = run(b, func(step int) error {
			if step != exciseAfter {
				return nil
			}
			if err := b.nw.RemoveProduction(victim.Name); err != nil {
				return err
			}
			excised = b.cs.keys()
			if err := b.nw.RemoveProduction(prods[0].Name); err == nil || !strings.Contains(err.Error(), "frozen") {
				return fmt.Errorf("excising base production %s from a session: err = %v", prods[0].Name, err)
			}
			if err := addLive(b, victim, liveAt[step]); err != nil {
				return err
			}
			reNames, reTwo = prodNames(b.nw.Productions()), b.nw.TwoInputNodes()
			if got := b.cs.keys(); fmt.Sprint(got) != fmt.Sprint(naiveCS(prods, nil, liveAt[step], reg)) {
				return fmt.Errorf("re-adding %s did not restore the conflict set: %v", victim.Name, got)
			}
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		gotC, errC = run(c, func(int) error { return nil })
	}()
	wg.Wait()
	for name, err := range map[string]error{"a": errA, "b": errB, "c": errC} {
		if err != nil {
			t.Fatalf("(%s): %v\nk=%d program:\n%s", name, err, k, src)
		}
	}

	for i := range deltas {
		all := naiveCS(prods, nil, liveAt[i], reg)
		base := naiveCS(prods[:k], nil, liveAt[i], reg)
		for _, x := range []struct {
			name      string
			got, want []string
		}{{"a", gotA[i], all}, {"b", gotB[i], all}, {"c", gotC[i], base}} {
			if fmt.Sprint(x.got) != fmt.Sprint(x.want) {
				t.Fatalf("step %d (%s): CS mismatch\n rete: %v\nnaive: %v\nk=%d program:\n%s", i, x.name, x.got, x.want, k, src)
			}
		}
	}
	if want := naiveCS(prods, victim, liveAt[exciseAfter], reg); fmt.Sprint(excised) != fmt.Sprint(want) {
		t.Fatalf("(b) with %s excised:\n rete: %v\nnaive: %v", victim.Name, excised, want)
	}

	// Structure: (b) is (a) split in two, and the split shows nowhere.
	namesA := prodNames(a.nw.Productions())
	if fmt.Sprint(builtNames) != fmt.Sprint(namesA) {
		t.Fatalf("Productions: (a) %v, (b) %v", namesA, builtNames)
	}
	sort.Strings(reNames)
	sort.Strings(namesA)
	if fmt.Sprint(reNames) != fmt.Sprint(namesA) {
		t.Fatalf("Productions after the re-add: (a) %v, (b) %v", namesA, reNames)
	}
	if two := a.nw.TwoInputNodes(); builtTwo != two || reTwo != two {
		t.Fatalf("TwoInputNodes: (a) %d, (b) %d as built, %d after the re-add", two, builtTwo, reTwo)
	}
	if na, nb := countBeta(a.nw), countBeta(b.nw); na != nb {
		t.Fatalf("WalkBeta reaches %d nodes in (a), %d in (b)", na, nb)
	}
	for i, p := range prods {
		pa, pb, pc := a.nw.Lookup(p.Name), b.nw.Lookup(p.Name), c.nw.Lookup(p.Name)
		if pa == nil || pb == nil {
			t.Fatalf("Lookup(%s): (a) %v, (b) %v", p.Name, pa, pb)
		}
		if inBase := i < k; (pc != nil) != inBase || (inBase && pc != pb) {
			t.Fatalf("Lookup(%s) in (c) = %v, in (b) = %v; in base: %t", p.Name, pc, pb, inBase)
		}
	}
	// (c) never saw (b)'s layer: same productions, same graph as at creation.
	if got := prodNames(c.nw.Productions()); fmt.Sprint(got) != fmt.Sprint(prodNames(top.Productions())) {
		t.Fatalf("(c) productions = %v, base has %v", got, prodNames(top.Productions()))
	}
	if got := c.nw.FormatNetwork(); got != baseFormat {
		t.Fatalf("(b)'s layer changed what (c) sees:\nbefore:\n%s\nafter:\n%s", baseFormat, got)
	}
}

// TestUpdateWalkUnderSplices runs the state update of chunks that a session
// splices under its shared base through every splice: a new test node under
// a base test node and a new memory at a base interior node (both in that
// node's holder, alphaAt), new joins under base memories (alphaSuccs) and
// under base beta nodes (betaKids); the
// second chunk also shares base joins, so it is seeded from base state.
// runUpdate checks each wme's update walk against the filtered alpha walk;
// the conflict sets must equal the naive matcher's.
func TestUpdateWalkUnderSplices(t *testing.T) {
	const src = `
(literalize a x y z)
(literalize b x)
(p base1 (a ^x 1 ^y 2) (b ^x <v>) --> (make o))
(p base2 (b ^x 7) --> (make o))
`
	chunks := []string{
		"(p chunk1 (a ^x 1 ^z 3) (a ^x 1) (b ^x 7) (a ^x 1 ^y 2) --> (make o))",
		"(p chunk2 (a ^x 1 ^y 2) (b ^x <v>) (a ^x 1 ^z <v>) --> (make o))",
	}
	e := newTestEnv(t, src)
	e.stamp()
	prog, err := ops5.Parse(src, e.tab)
	if err != nil {
		t.Fatal(err)
	}
	prods := prog.Productions
	check := func(when string) {
		t.Helper()
		if got, want := e.cs.keys(), naiveCS(prods, nil, e.mem.All(), e.reg); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: CS %v, naive %v", when, got, want)
		}
		auditClean(t, e)
	}
	for _, kv := range [][]any{{"x", 1, "y", 2}, {"x", 1, "z", 3}, {"x", 1, "y", 2, "z", 7}, {"x", 1, "z", 7}, {"x", 2}} {
		e.add(e.wmeOf("a", kv...))
	}
	for _, v := range []int{7, 3, 2} {
		e.add(e.wmeOf("b", "x", v))
	}
	check("before the chunks")
	for _, c := range chunks {
		ast, err := ops5.ParseProduction(c, e.tab)
		if err != nil {
			t.Fatal(err)
		}
		_, info, err := e.nw.AddProduction(ast)
		if err != nil {
			t.Fatal(err)
		}
		e.update(info)
		prods = append(prods, ast)
		check("after " + ast.Name)
	}
	own := &e.nw.own
	withKids, withMem := 0, 0
	for _, h := range own.alphaAt {
		if len(h.eqKids)+len(h.linear) > 0 {
			withKids++
		}
		if h.mem != nil {
			withMem++
		}
	}
	if withKids == 0 || withMem == 0 || len(own.alphaSuccs) == 0 || len(own.betaKids) == 0 {
		t.Fatalf("splices made: %d holders with children, %d with a memory, %d alphaSuccs, %d betaKids; want some of each",
			withKids, withMem, len(own.alphaSuccs), len(own.betaKids))
	}
	for _, w := range e.mem.All() {
		e.remove(w)
		check(fmt.Sprintf("after removing wme %d", w.ID))
	}
}

// TestSplicedAlphaDispatchIsConstant splices k and then 10·k symbol-equality
// test nodes under one base alpha node, (a ^x foo), and injects the same
// deltas into both sessions: the children spliced under a base node are
// dispatched through the same index as the base's own, so the tests, hits
// and misses a delta costs do not grow with what a session has learned, and
// the walk allocates nothing.
func TestSplicedAlphaDispatchIsConstant(t *testing.T) {
	const src = `
(literalize a x y)
(p base (a ^x foo) --> (make o))
`
	noop := func(*BetaNode, *wme.WME, wme.Op) {}
	perDelta := func(k int) [][3]int64 {
		e := newTestEnv(t, src)
		e.stamp()
		for i := range k {
			ast, err := ops5.ParseProduction(fmt.Sprintf("(p chunk%d (a ^x foo ^y s%d) --> (make o))", i, i), e.tab)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.nw.AddProduction(ast); err != nil {
				t.Fatal(err)
			}
		}
		var out [][3]int64
		st := &e.nw.Stats
		for _, y := range []string{"s3", "s7", "nope"} {
			d := wme.Delta{Op: wme.Add, WME: e.wmeOf("a", "x", "foo", "y", y)}
			c, h, m := st.ConstTests.Load(), st.AlphaHits.Load(), st.AlphaMisses.Load()
			e.nw.Inject(d, noop)
			out = append(out, [3]int64{st.ConstTests.Load() - c, st.AlphaHits.Load() - h, st.AlphaMisses.Load() - m})
			if allocs := testing.AllocsPerRun(20, func() { e.nw.Inject(d, noop) }); allocs != 0 {
				t.Fatalf("k=%d: Inject of y=%s allocates %.1f times", k, y, allocs)
			}
		}
		return out
	}
	const k = 8
	small, large := perDelta(k), perDelta(10*k)
	if fmt.Sprint(small) != fmt.Sprint(large) {
		t.Fatalf("(ConstTests, AlphaHits, AlphaMisses) per delta: %v at %d spliced children, %v at %d",
			small, k, large, 10*k)
	}
}

// naiveCS is the naive matcher's conflict set for prods (but for skip, which
// may be nil) over live.
func naiveCS(prods []*ops5.Production, skip *ops5.Production, live []*wme.WME, reg *wme.Registry) []string {
	var want []string
	for _, p := range prods {
		if p != skip {
			want = append(want, naiveMatch(p, live, reg)...)
		}
	}
	sort.Strings(want)
	return want
}

// TestRejectedAddLeavesNetworkUnchanged pins AddProduction's all-or-nothing
// contract: a production rejected by checkRHS, or by a condition that fails
// to compile after conditions that would share a join or grow the alpha
// network, leaves no node, memory, reference or ID behind, on an owned
// network and on a session layer over a shared base alike.
func TestRejectedAddLeavesNetworkUnchanged(t *testing.T) {
	const (
		decls = "(literalize a x y)\n(literalize b x)\n"
		base  = "(p keep (a ^x <v> ^y blue) (b ^x <v>) --> (make o))"
		good  = "(p good (a ^x <v> ^y blue) (b ^x <v>) (a ^y 9) --> (make o))"
	)
	rejected := map[string]string{
		// Two joins' worth of conditions before an RHS that reads an
		// unbound variable.
		"rhs": "(p bad (a ^x <v>) (a ^y <v>) --> (make a ^x <nope>))",
		// Would share keep's first join and grow the alpha network (^y 7,
		// class c) before the condition that fails to compile.
		"mid-build": "(p bad (a ^x <v> ^y blue) (a ^y 7 ^x <v>) (c ^z 1) (b ^x > <w>) --> (make o))",
		"ncc":       "(p bad (a ^x <v> ^y blue) -{ (b ^x <v>) (a ^y <v>) } (b ^x > <w>) --> (make o))",
	}
	// spliced: a rejected first splice must hand the hot paths their nil
	// splice-map test back (layer.spliced).
	type snap struct {
		two, beta int
		max       NodeID
		spliced   bool
		format    string
	}
	snapOf := func(nw *Network) snap {
		return snap{nw.TwoInputNodes(), countBeta(nw), nw.MaxNodeID(), nw.own.betaKids != nil, nw.FormatNetwork()}
	}
	for name, bad := range rejected {
		for _, layered := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/layered=%t", name, layered), func(t *testing.T) {
				// build returns a network holding keep — owned, or as a
				// session over a base holding it — after adding srcs.
				build := func(srcs ...string) (*testEnv, []error) {
					e := newTestEnv(t, decls+base)
					if layered {
						e.stamp()
					}
					var errs []error
					for _, src := range srcs {
						ast, err := ops5.ParseProduction(src, e.tab)
						if err != nil {
							t.Fatal(err)
						}
						_, _, err = e.nw.AddProduction(ast)
						errs = append(errs, err)
					}
					return e, errs
				}
				e, _ := build()
				before := snapOf(e.nw)
				ast, err := ops5.ParseProduction(bad, e.tab)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := e.nw.AddProduction(ast); err == nil {
					t.Fatal("bad production was accepted")
				}
				if after := snapOf(e.nw); after != before {
					t.Fatalf("rejected add left the network changed:\nbefore: %+v\nafter:  %+v", before, after)
				}
				// Nothing invisible is left either: the next add builds
				// exactly what it builds on a network that never saw bad.
				ref, errs := build(good)
				if errs[0] != nil {
					t.Fatal(errs[0])
				}
				goodAST, _ := ops5.ParseProduction(good, e.tab)
				if _, _, err := e.nw.AddProduction(goodAST); err != nil {
					t.Fatal(err)
				}
				if got, want := snapOf(e.nw), snapOf(ref.nw); got != want {
					t.Fatalf("add after a rejected add differs from a clean add:\n got: %+v\nwant: %+v", got, want)
				}
				// And it matches: keep and good both fire on this wm.
				e.add(e.wmeOf("a", "x", "v1", "y", "blue"))
				e.add(e.wmeOf("b", "x", "v1"))
				e.add(e.wmeOf("a", "y", 9))
				if got := e.cs.keys(); len(got) != 2 {
					t.Fatalf("conflict set after the rejected add = %v, want keep and good", got)
				}
				if errs := e.nw.Audit(e.mem); len(errs) > 0 {
					t.Fatalf("audit: %v", errs)
				}
			})
		}
	}
}

// TestStampsAreIndependent: networks stamped from one topology share only
// what is frozen. Eight stamps run at once; each interns names of its own,
// extends one class with the same attributes in an order of its own, and
// compiles and matches a production over them. Each sees only what it
// wrote, and the topology's table and registry are as Freeze left them.
func TestStampsAreIndependent(t *testing.T) {
	const stamps = 8
	top := newTestEnv(t, "(literalize c v)\n(p base (c ^v 1) --> (make o))").nw.Freeze()
	cls, _ := top.tab.Lookup("c")
	symbols, classes := symbolCount(top.tab), top.reg.Classes()
	schema := slices.Clone(top.reg.Get(cls, false).Attrs())

	stamp := func(i int) error {
		e := &testEnv{t: t, cs: newCS(), s: &serialSched{}, mem: wme.NewMemory()}
		e.nw = NewFromTopology(top, e.cs, DefaultOptions())
		e.tab, e.reg = e.nw.Tab, e.nw.Reg
		// Attributes x0..x7, starting at xi: stamp i puts xi at index 1.
		for k := range stamps {
			attr := e.tab.Intern(fmt.Sprintf("x%d", (i+k)%stamps))
			if idx, _ := e.reg.FieldIndex(cls, attr, true); idx != 1+k {
				return fmt.Errorf("x%d at index %d, want %d", (i+k)%stamps, idx, 1+k)
			}
		}
		own, attr := fmt.Sprintf("own%d", i), fmt.Sprintf("x%d", i)
		ast, err := ops5.ParseProduction(fmt.Sprintf("(p %s (c ^%s %s) --> (make o))", own, attr, own), e.tab)
		if err != nil {
			return err
		}
		if _, _, err := e.nw.AddProduction(ast); err != nil {
			return err
		}
		w := e.wmeOf("c", "v", 1, attr, own)
		e.add(w)
		if got, want := e.cs.keys(), []string{fmt.Sprintf("base[%d]", w.ID), fmt.Sprintf("%s[%d]", own, w.ID)}; !slices.Equal(got, want) {
			return fmt.Errorf("conflict set %v, want %v", got, want)
		}
		if got, want := w.Format(e.tab, e.reg), fmt.Sprintf("(c ^v 1 ^%s %s)", attr, own); got != want {
			return fmt.Errorf("wme reads %s, want %s", got, want)
		}
		for j := range stamps {
			if _, ok := e.tab.Lookup(fmt.Sprintf("own%d", j)); ok != (j == i) {
				return fmt.Errorf("table holds own%d: %t", j, ok)
			}
		}
		return nil
	}
	errs := make([]error, stamps)
	var wg sync.WaitGroup
	for i := range stamps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = stamp(i)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("stamp %d: %v", i, err)
		}
	}
	if got := symbolCount(top.tab); got != symbols {
		t.Errorf("topology's table grew from %d to %d symbols", symbols, got)
	}
	if got := top.reg.Classes(); !slices.Equal(got, classes) {
		t.Errorf("topology's classes %v, were %v", got, classes)
	}
	if got := top.reg.Get(cls, false).Attrs(); !slices.Equal(got, schema) {
		t.Errorf("topology's schema of c %v, was %v", got, schema)
	}
}

// symbolCount returns the number of symbols tab has interned.
func symbolCount(tab *value.Table) int {
	n := 0
	for tab.Name(value.Sym(n+1)) != "" {
		n++
	}
	return n
}
