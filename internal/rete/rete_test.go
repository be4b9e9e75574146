package rete

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"soarpsme/internal/ops5"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// serialSched executes pushed tasks LIFO on the calling goroutine.
type serialSched struct {
	q    []*Task
	proc Proc
}

func (s *serialSched) NewTask() *Task { return new(Task) }

func (s *serialSched) Push(t *Task) { s.q = append(s.q, t) }

func (s *serialSched) Proc() *Proc { return &s.proc }

// drain runs the queued tasks to quiescence and publishes their counts, as
// a runtime does at the end of a cycle.
func drain(nw *Network, s *serialSched) int {
	n := 0
	for len(s.q) > 0 {
		t := s.q[len(s.q)-1]
		s.q = s.q[:len(s.q)-1]
		nw.Exec(t, s)
		n++
	}
	nw.Publish(&s.proc)
	return n
}

// csRecorder collects the live instantiation multiset.
type csRecorder struct {
	mu sync.Mutex
	m  map[string]int
}

func newCS() *csRecorder { return &csRecorder{m: map[string]int{}} }

func instKeyStr(p *Production, t *Token) string {
	ws := t.WMEs()
	ids := make([]uint64, len(ws))
	for i, w := range ws {
		ids[i] = w.ID
	}
	return fmt.Sprintf("%s%v", p.Name, ids)
}

func (c *csRecorder) Insert(p *Production, t *Token) {
	c.mu.Lock()
	c.m[instKeyStr(p, t)]++
	c.mu.Unlock()
}

func (c *csRecorder) Retract(p *Production, t *Token) {
	c.mu.Lock()
	c.m[instKeyStr(p, t)]--
	if c.m[instKeyStr(p, t)] == 0 {
		delete(c.m, instKeyStr(p, t))
	}
	c.mu.Unlock()
}

func (c *csRecorder) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for k, n := range c.m {
		if n != 1 {
			out = append(out, fmt.Sprintf("%s x%d", k, n))
			continue
		}
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// testEnv bundles a network with helpers.
type testEnv struct {
	t   *testing.T
	tab *value.Table
	reg *wme.Registry
	nw  *Network
	cs  *csRecorder
	s   *serialSched
	mem *wme.Memory
}

func newEnvOpts(t *testing.T, src string, opts Options) *testEnv {
	t.Helper()
	tab := value.NewTable()
	reg := wme.NewRegistry()
	cs := newCS()
	nw := NewNetwork(tab, reg, cs, opts)
	prog, err := ops5.Parse(src, tab)
	if err != nil {
		t.Fatal(err)
	}
	for _, lit := range prog.Literalize {
		reg.Declare(lit.Class, lit.Attrs...)
	}
	for _, p := range prog.Productions {
		if _, _, err := nw.AddProduction(p); err != nil {
			t.Fatal(err)
		}
	}
	return &testEnv{t: t, tab: tab, reg: reg, nw: nw, cs: cs, s: &serialSched{}, mem: wme.NewMemory()}
}

func newTestEnv(t *testing.T, src string) *testEnv {
	return newEnvOpts(t, src, DefaultOptions())
}

// stamp freezes e's network and makes e a session over the topology: a
// fresh network whose own table and registry e's helpers use from then on.
func (e *testEnv) stamp() {
	e.nw = NewFromTopology(e.nw.Freeze(), e.cs, DefaultOptions())
	e.tab, e.reg = e.nw.Tab, e.nw.Reg
}

// wmeOf builds a wme like (class ^a1 v1 ^a2 v2 ...); values given as
// strings are interned symbols, ints as int values.
func (e *testEnv) wmeOf(class string, kv ...any) *wme.WME {
	e.t.Helper()
	cls := e.tab.Intern(class)
	schema := e.reg.Get(cls, true)
	fields := make([]value.Value, schema.Width())
	for i := 0; i+1 < len(kv); i += 2 {
		idx, _ := e.reg.FieldIndex(cls, e.tab.Intern(kv[i].(string)), true)
		for idx >= len(fields) {
			fields = append(fields, value.Nil)
		}
		switch v := kv[i+1].(type) {
		case string:
			fields[idx] = e.tab.SymV(v)
		case int:
			fields[idx] = value.IntVal(int64(v))
		case float64:
			fields[idx] = value.FloatVal(v)
		default:
			e.t.Fatalf("bad value %v", v)
		}
	}
	return e.mem.Make(cls, fields)
}

func (e *testEnv) add(w *wme.WME) {
	e.mem.Insert(w)
	e.inject(wme.Delta{Op: wme.Add, WME: w})
}

func (e *testEnv) remove(w *wme.WME) {
	e.mem.Delete(w)
	e.inject(wme.Delta{Op: wme.Remove, WME: w})
}

func (e *testEnv) inject(d wme.Delta) {
	e.nw.Inject(d, func(n *BetaNode, w *wme.WME, op wme.Op) {
		e.s.Push(&Task{Node: n, Dir: DirRight, Op: op, W: w})
	})
	drain(e.nw, e.s)
}

// runUpdate runs the §5.2 state update of an addition on s: the last
// shared node's seeds, then every live wme through InjectUpdate. It also
// checks the pruned walk against its definition: for each wme, the (node,
// wme) activations InjectUpdate emits must be, in order, those Inject emits
// with every node below FirstNewID dropped.
func runUpdate(nw *Network, s *serialSched, info *AddInfo, live []*wme.WME) error {
	for _, seed := range nw.SeedUpdateTasks(info) {
		s.Push(seed)
	}
	for _, w := range live {
		type act struct {
			n  *BetaNode
			w  *wme.WME
			op wme.Op
		}
		var want, got []act
		nw.Inject(wme.Delta{Op: wme.Add, WME: w}, func(n *BetaNode, x *wme.WME, op wme.Op) {
			if n.ID >= info.FirstNewID {
				want = append(want, act{n, x, op})
			}
		})
		nw.InjectUpdate(info, w, func(n *BetaNode, x *wme.WME, op wme.Op) {
			got = append(got, act{n, x, op})
			s.Push(&Task{Node: n, Dir: DirRight, Op: op, W: x})
		})
		if !slices.Equal(got, want) {
			return fmt.Errorf("wme %d: update walk emitted %v, the filtered alpha walk %v", w.ID, got, want)
		}
	}
	drain(nw, s)
	return nil
}

// update runs the state update of an addition over e's working memory.
func (e *testEnv) update(info *AddInfo) {
	e.t.Helper()
	if err := runUpdate(e.nw, e.s, info, e.mem.All()); err != nil {
		e.t.Fatal(err)
	}
}

func (e *testEnv) wantCS(want ...string) {
	e.t.Helper()
	sort.Strings(want)
	got := e.cs.keys()
	if len(got) != len(want) {
		e.t.Fatalf("CS = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			e.t.Fatalf("CS = %v, want %v", got, want)
		}
	}
	if n := e.nw.Mem.Tombstones(); n != 0 {
		e.t.Fatalf("%d tombstones at quiescence", n)
	}
}

const blueBlock = `
(literalize block name color on state)
(literalize hand state)
(p graspable
  (block ^name <b> ^color blue)
  -(block ^on <b>)
  (hand ^state free)
  -->
  (make goal ^obj <b>))
`

func TestMatchBasicAndNegation(t *testing.T) {
	e := newTestEnv(t, blueBlock)
	b1 := e.wmeOf("block", "name", "b1", "color", "blue")
	hand := e.wmeOf("hand", "state", "free")
	e.add(b1)
	e.wantCS() // no hand yet
	e.add(hand)
	e.wantCS(fmt.Sprintf("graspable[%d %d]", b1.ID, hand.ID))

	// A block on top of b1 blocks the negation.
	b2 := e.wmeOf("block", "name", "b2", "color", "red", "on", "b1")
	e.add(b2)
	e.wantCS()
	e.remove(b2)
	e.wantCS(fmt.Sprintf("graspable[%d %d]", b1.ID, hand.ID))

	// Removing the hand retracts.
	e.remove(hand)
	e.wantCS()
}

func TestMatchOrderIndependence(t *testing.T) {
	// Same wmes in different insertion orders give the same CS.
	mk := func(order []int) []string {
		e := newTestEnv(t, blueBlock)
		b1 := e.wmeOf("block", "name", "b1", "color", "blue")
		hand := e.wmeOf("hand", "state", "free")
		b2 := e.wmeOf("block", "name", "b2", "color", "red", "on", "b1")
		ws := []*wme.WME{b1, hand, b2}
		for _, i := range order {
			e.add(ws[i])
		}
		return e.cs.keys()
	}
	ref := mk([]int{0, 1, 2})
	for _, ord := range [][]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		got := mk(ord)
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("order %v: CS %v != %v", ord, got, ref)
		}
	}
}

func TestVariableJoin(t *testing.T) {
	e := newTestEnv(t, `
(literalize parent of child)
(literalize person name age)
(p grandparent
  (parent ^of <a> ^child <b>)
  (parent ^of <b> ^child <c>)
  -->
  (make gp ^a <a> ^c <c>))
`)
	p1 := e.wmeOf("parent", "of", "alice", "child", "bob")
	p2 := e.wmeOf("parent", "of", "bob", "child", "carol")
	p3 := e.wmeOf("parent", "of", "dave", "child", "erin")
	e.add(p1)
	e.add(p2)
	e.add(p3)
	e.wantCS(fmt.Sprintf("grandparent[%d %d]", p1.ID, p2.ID))
	// self-join: bob->bob would match both CEs.
	p4 := e.wmeOf("parent", "of", "carol", "child", "alice")
	e.add(p4)
	e.wantCS(
		fmt.Sprintf("grandparent[%d %d]", p1.ID, p2.ID),
		fmt.Sprintf("grandparent[%d %d]", p2.ID, p4.ID),
		fmt.Sprintf("grandparent[%d %d]", p4.ID, p1.ID),
	)
	e.remove(p2)
	e.wantCS(fmt.Sprintf("grandparent[%d %d]", p4.ID, p1.ID))
}

func TestPredicateAndDisjunctionTests(t *testing.T) {
	e := newTestEnv(t, `
(literalize item size kind)
(p pick
  (item ^size { > 3 <= 10 } ^kind << widget gadget >>)
  -->
  (make out))
`)
	w1 := e.wmeOf("item", "size", 5, "kind", "widget")
	w2 := e.wmeOf("item", "size", 2, "kind", "widget")
	w3 := e.wmeOf("item", "size", 11, "kind", "gadget")
	w4 := e.wmeOf("item", "size", 10, "kind", "gizmo")
	w5 := e.wmeOf("item", "size", 10, "kind", "gadget")
	for _, w := range []*wme.WME{w1, w2, w3, w4, w5} {
		e.add(w)
	}
	e.wantCS(
		fmt.Sprintf("pick[%d]", w1.ID),
		fmt.Sprintf("pick[%d]", w5.ID),
	)
}

func TestIntraCEVariableConsistency(t *testing.T) {
	e := newTestEnv(t, `
(literalize pair a b)
(p same (pair ^a <x> ^b <x>) --> (make out))
(p diff (pair ^a <x> ^b <> <x>) --> (make out2))
`)
	w1 := e.wmeOf("pair", "a", "v", "b", "v")
	w2 := e.wmeOf("pair", "a", "v", "b", "u")
	e.add(w1)
	e.add(w2)
	e.wantCS(
		fmt.Sprintf("same[%d]", w1.ID),
		fmt.Sprintf("diff[%d]", w2.ID),
	)
}

func TestNegatedJoinVariable(t *testing.T) {
	e := newTestEnv(t, `
(literalize task id status)
(literalize blocker task)
(p runnable
  (task ^id <t> ^status ready)
  -(blocker ^task <t>)
  -->
  (make run ^task <t>))
`)
	t1 := e.wmeOf("task", "id", "t1", "status", "ready")
	t2 := e.wmeOf("task", "id", "t2", "status", "ready")
	bl := e.wmeOf("blocker", "task", "t1")
	e.add(t1)
	e.add(t2)
	e.add(bl)
	e.wantCS(fmt.Sprintf("runnable[%d]", t2.ID))
	e.remove(bl)
	e.wantCS(
		fmt.Sprintf("runnable[%d]", t1.ID),
		fmt.Sprintf("runnable[%d]", t2.ID),
	)
}

func TestConjunctiveNegation(t *testing.T) {
	e := newTestEnv(t, `
(literalize goal state)
(literalize door in status)
(literalize lock door)
(p all-clear
  (goal ^state <s>)
  -{ (door ^in <s> ^status closed) (lock ^door <s>) }
  -->
  (make clear ^state <s>))
`)
	g := e.wmeOf("goal", "state", "s1")
	e.add(g)
	e.wantCS(fmt.Sprintf("all-clear[%d]", g.ID))

	// A closed door alone does not block (conjunction incomplete).
	d := e.wmeOf("door", "in", "s1", "status", "closed")
	e.add(d)
	e.wantCS(fmt.Sprintf("all-clear[%d]", g.ID))

	// Door + lock complete the conjunction: blocked.
	l := e.wmeOf("lock", "door", "s1")
	e.add(l)
	e.wantCS()

	// Removing either element unblocks.
	e.remove(d)
	e.wantCS(fmt.Sprintf("all-clear[%d]", g.ID))
	e.add(d)
	e.wantCS()
	e.remove(l)
	e.wantCS(fmt.Sprintf("all-clear[%d]", g.ID))

	// Removing the goal removes the instantiation entirely.
	e.remove(g)
	e.wantCS()
	// With every wme retracted, all memories must be empty.
	e.remove(d)
	if left, right := e.nw.Mem.Entries(); left != 0 || right != 0 {
		t.Fatalf("memories not empty after full retraction: %d,%d", left, right)
	}
}

func TestNCCMultipleStates(t *testing.T) {
	e := newTestEnv(t, `
(literalize goal state)
(literalize door in status)
(literalize lock door)
(p all-clear
  (goal ^state <s>)
  -{ (door ^in <s> ^status closed) (lock ^door <s>) }
  -->
  (make clear ^state <s>))
`)
	g1 := e.wmeOf("goal", "state", "s1")
	g2 := e.wmeOf("goal", "state", "s2")
	d1 := e.wmeOf("door", "in", "s1", "status", "closed")
	l1 := e.wmeOf("lock", "door", "s1")
	for _, w := range []*wme.WME{g1, g2, d1, l1} {
		e.add(w)
	}
	// s1 blocked, s2 clear.
	e.wantCS(fmt.Sprintf("all-clear[%d]", g2.ID))
}

func TestNodeSharing(t *testing.T) {
	src := `
(literalize a x y)
(literalize b x)
(p p1 (a ^x <v>) (b ^x <v>) --> (make o1))
(p p2 (a ^x <v>) (b ^x <v>) --> (make o2))
(p p3 (a ^x <v>) (b ^x <> <v>) --> (make o3))
`
	e := newTestEnv(t, src)
	// p1/p2 share both joins; p3 shares the first.
	if n := e.nw.TwoInputNodes(); n != 3 {
		t.Fatalf("two-input nodes = %d, want 3 (shared)", n)
	}

	opts := DefaultOptions()
	opts.ShareBeta = false
	e2 := newEnvOpts(t, src, opts)
	if n := e2.nw.TwoInputNodes(); n != 6 {
		t.Fatalf("unshared two-input nodes = %d, want 6", n)
	}

	// Both give identical match results.
	for _, env := range []*testEnv{e, e2} {
		a := env.wmeOf("a", "x", "k")
		b := env.wmeOf("b", "x", "k")
		env.add(a)
		env.add(b)
		env.wantCS(
			fmt.Sprintf("p1[%d %d]", a.ID, b.ID),
			fmt.Sprintf("p2[%d %d]", a.ID, b.ID),
		)
	}
}

func TestDuplicateWMEsDistinct(t *testing.T) {
	// Two wmes with identical contents are distinct matches in OPS5.
	e := newTestEnv(t, `
(literalize c v)
(p p1 (c ^v 1) --> (make o))
`)
	w1 := e.wmeOf("c", "v", 1)
	w2 := e.wmeOf("c", "v", 1)
	e.add(w1)
	e.add(w2)
	e.wantCS(fmt.Sprintf("p1[%d]", w1.ID), fmt.Sprintf("p1[%d]", w2.ID))
	e.remove(w1)
	e.wantCS(fmt.Sprintf("p1[%d]", w2.ID))
}

func TestRuntimeAdditionWithUpdate(t *testing.T) {
	e := newTestEnv(t, blueBlock)
	b1 := e.wmeOf("block", "name", "b1", "color", "blue")
	hand := e.wmeOf("hand", "state", "free")
	b2 := e.wmeOf("block", "name", "b2", "color", "blue")
	onb2 := e.wmeOf("block", "name", "b3", "color", "red", "on", "b2")
	for _, w := range []*wme.WME{b1, hand, b2, onb2} {
		e.add(w)
	}
	e.wantCS(fmt.Sprintf("graspable[%d %d]", b1.ID, hand.ID))

	// Add a chunk at run time sharing the first two CEs with graspable.
	chunk, err := ops5.ParseProduction(`
(p chunk-1
  (block ^name <b> ^color blue)
  -(block ^on <b>)
  (hand ^state <> free)
  -->
  (make waitfor ^obj <b>))`, e.tab)
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := e.nw.AddProduction(chunk)
	if err != nil {
		t.Fatal(err)
	}
	if info.SharedTwoInput == 0 {
		t.Fatalf("chunk should share prefix nodes")
	}
	if len(info.boundary) == 0 {
		t.Fatalf("no boundary nodes")
	}
	e.update(info)

	// chunk-1 requires a non-free hand: no instantiation yet, and the
	// pre-existing instantiation must not be duplicated.
	e.wantCS(fmt.Sprintf("graspable[%d %d]", b1.ID, hand.ID))

	// Flip the hand state: graspable retracts; chunk-1 matches b1 only
	// (b3 sits on b2, so b2 is blocked by the negation — whose right
	// memory was populated by the update cycle).
	e.remove(hand)
	busy := e.wmeOf("hand", "state", "busy")
	e.add(busy)
	e.wantCS(fmt.Sprintf("chunk-1[%d %d]", b1.ID, busy.ID))

	// Unblocking b2 exercises the updated not node.
	e.remove(onb2)
	e.wantCS(
		fmt.Sprintf("chunk-1[%d %d]", b1.ID, busy.ID),
		fmt.Sprintf("chunk-1[%d %d]", b2.ID, busy.ID),
	)
}

func TestRuntimeAdditionFreshAlpha(t *testing.T) {
	// The added production uses a class with existing wmes but a brand-new
	// alpha path; the WM replay must populate it.
	e := newTestEnv(t, `
(literalize c v)
(p p1 (c ^v 1) --> (make o))
`)
	w1 := e.wmeOf("c", "v", 1)
	w2 := e.wmeOf("c", "v", 2)
	e.add(w1)
	e.add(w2)
	chunk, err := ops5.ParseProduction(`(p c2 (c ^v 2) --> (make o2))`, e.tab)
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := e.nw.AddProduction(chunk)
	if err != nil {
		t.Fatal(err)
	}
	e.update(info)
	e.wantCS(fmt.Sprintf("p1[%d]", w1.ID), fmt.Sprintf("c2[%d]", w2.ID))
}

func TestUpdateEquivalence(t *testing.T) {
	// Adding production Q at run time (with update) must yield the same CS
	// as a network built with Q from the start — for many WM shapes.
	progA := `
(literalize g s)
(literalize d in st)
(literalize k d)
(p base (g ^s <s>) (d ^in <s> ^st open) --> (make o))
`
	chunkSrc := `(p q (g ^s <s>) (d ^in <s> ^st open) -(k ^d <s>) --> (make oq))`
	full := progA + "\n" + chunkSrc

	type step struct {
		class string
		kv    []any
	}
	scenarios := [][]step{
		{{"g", []any{"s", "s1"}}, {"d", []any{"in", "s1", "st", "open"}}},
		{{"g", []any{"s", "s1"}}, {"d", []any{"in", "s1", "st", "open"}}, {"k", []any{"d", "s1"}}},
		{{"d", []any{"in", "s2", "st", "open"}}, {"g", []any{"s", "s2"}}, {"g", []any{"s", "s3"}}},
	}
	for i, sc := range scenarios {
		// Reference: everything compiled up front.
		ref := newTestEnv(t, full)
		for _, st := range sc {
			ref.add(ref.wmeOf(st.class, st.kv...))
		}
		// Candidate: chunk added at run time after wmes.
		cand := newTestEnv(t, progA)
		for _, st := range sc {
			cand.add(cand.wmeOf(st.class, st.kv...))
		}
		chunk, err := ops5.ParseProduction(chunkSrc, cand.tab)
		if err != nil {
			t.Fatal(err)
		}
		_, info, err := cand.nw.AddProduction(chunk)
		if err != nil {
			t.Fatal(err)
		}
		cand.update(info)

		if fmt.Sprint(ref.cs.keys()) != fmt.Sprint(cand.cs.keys()) {
			t.Fatalf("scenario %d: update CS %v != reference %v", i, cand.cs.keys(), ref.cs.keys())
		}
	}
}

const bilinearSrc = `
(literalize g id)
(literalize ps g name)
(literalize s g v)
(literalize obj s name type)
(p long-chain
  (g ^id <g>)
  (ps ^g <g> ^name strips)
  (s ^g <g> ^v <s>)
  (obj ^s <s> ^name o1 ^type robot)
  (obj ^s <s> ^name o2 ^type door)
  (obj ^s <s> ^name o3 ^type door)
  (obj ^s <s> ^name o4 ^type box)
  (obj ^s <s> ^name o5 ^type box)
  -->
  (make out ^g <g>))
`

func bilinearWMEs(e *testEnv) []*wme.WME {
	return []*wme.WME{
		e.wmeOf("g", "id", "g1"),
		e.wmeOf("ps", "g", "g1", "name", "strips"),
		e.wmeOf("s", "g", "g1", "v", "s1"),
		e.wmeOf("obj", "s", "s1", "name", "o1", "type", "robot"),
		e.wmeOf("obj", "s", "s1", "name", "o2", "type", "door"),
		e.wmeOf("obj", "s", "s1", "name", "o3", "type", "door"),
		e.wmeOf("obj", "s", "s1", "name", "o4", "type", "box"),
		e.wmeOf("obj", "s", "s1", "name", "o5", "type", "box"),
	}
}

func TestBilinearEquivalence(t *testing.T) {
	lin := newTestEnv(t, bilinearSrc)
	opts := DefaultOptions()
	opts.Organization = Bilinear
	opts.ContextCEs = 3
	opts.GroupCEs = 2
	bil := newEnvOpts(t, bilinearSrc, opts)

	for _, env := range []*testEnv{lin, bil} {
		ws := bilinearWMEs(env)
		for _, w := range ws {
			env.add(w)
		}
	}
	lk, bk := lin.cs.keys(), bil.cs.keys()
	if len(lk) != 1 || len(bk) != 1 {
		t.Fatalf("expected one instantiation: linear %v bilinear %v", lk, bk)
	}
	if lk[0] != bk[0] {
		t.Fatalf("bilinear CS %v != linear %v", bk, lk)
	}

	// Deletion must retract in both.
	// (Rebuild environments because wmes are per-env.)
	lin2 := newTestEnv(t, bilinearSrc)
	bil2 := newEnvOpts(t, bilinearSrc, opts)
	for _, env := range []*testEnv{lin2, bil2} {
		ws := bilinearWMEs(env)
		for _, w := range ws {
			env.add(w)
		}
		env.remove(ws[4]) // one door
		if len(env.cs.keys()) != 0 {
			t.Fatalf("retraction failed: %v", env.cs.keys())
		}
		env.add(env.wmeOf("obj", "s", "s1", "name", "o2", "type", "door"))
		if len(env.cs.keys()) != 1 {
			t.Fatalf("re-add failed: %v", env.cs.keys())
		}
	}
}

func TestBilinearShortensChains(t *testing.T) {
	// The bilinear network's maximum chain depth (dependent activations)
	// must be shorter than the linear one's (paper: 43 -> 15 CEs).
	lin := newTestEnv(t, bilinearSrc)
	opts := DefaultOptions()
	opts.Organization = Bilinear
	opts.ContextCEs = 3
	opts.GroupCEs = 2
	bil := newEnvOpts(t, bilinearSrc, opts)
	depth := func(e *testEnv) int {
		max := 0
		var rec func(n *BetaNode, d int)
		rec = func(n *BetaNode, d int) {
			if d > max {
				max = d
			}
			for _, c := range n.children {
				rec(c, d+1)
			}
		}
		e.nw.walkBeta(func(n *BetaNode) {
			if n.parent == nil {
				rec(n, 1)
			}
		})
		return max
	}
	dl, db := depth(lin), depth(bil)
	if db >= dl {
		t.Fatalf("bilinear depth %d not shorter than linear %d", db, dl)
	}
}

func TestAddProductionErrors(t *testing.T) {
	e := newTestEnv(t, `(literalize c v)
(p p1 (c ^v 1) --> (make o))`)
	dup, _ := ops5.ParseProduction(`(p p1 (c ^v 1) --> (make o))`, e.tab)
	if _, _, err := e.nw.AddProduction(dup); err == nil {
		t.Fatalf("duplicate production accepted")
	}
	bad, _ := ops5.ParseProduction(`(p p2 (c ^v > <x>) --> (make o))`, e.tab)
	if _, _, err := e.nw.AddProduction(bad); err == nil {
		t.Fatalf("predicate on unbound variable accepted")
	}
	bad2, _ := ops5.ParseProduction(`(p p3 (c ^v <x>) --> (modify 2 ^v 1))`, e.tab)
	if _, _, err := e.nw.AddProduction(bad2); err == nil {
		t.Fatalf("out-of-range modify accepted")
	}
	bad3, _ := ops5.ParseProduction(`(p p4 (c ^v <x>) -(c ^v <y>) --> (remove 2))`, e.tab)
	if _, _, err := e.nw.AddProduction(bad3); err == nil {
		t.Fatalf("remove of negated CE accepted")
	}
	bad4, _ := ops5.ParseProduction(`(p p5 (c ^v <x>) --> (make o ^v <zz>))`, e.tab)
	if _, _, err := e.nw.AddProduction(bad4); err == nil {
		t.Fatalf("unbound RHS variable accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	e := newTestEnv(t, blueBlock)
	b1 := e.wmeOf("block", "name", "b1", "color", "blue")
	hand := e.wmeOf("hand", "state", "free")
	e.add(b1)
	e.add(hand)
	if e.nw.Stats.Activations.Load() == 0 {
		t.Fatalf("no activations recorded")
	}
	if e.nw.Stats.ConstTests.Load() == 0 {
		t.Fatalf("no constant tests recorded")
	}
	if e.nw.Stats.TokensEmitted.Load() == 0 {
		t.Fatalf("no tokens emitted")
	}
}

func TestMaxNodeIDMonotone(t *testing.T) {
	e := newTestEnv(t, `(literalize c v)
(p p1 (c ^v 1) --> (make o))`)
	before := e.nw.MaxNodeID()
	p2, _ := ops5.ParseProduction(`(p p2 (c ^v 2) --> (make o))`, e.tab)
	_, info, err := e.nw.AddProduction(p2)
	if err != nil {
		t.Fatal(err)
	}
	if info.FirstNewID <= before {
		t.Fatalf("new node IDs not monotone: first new %d, prior max %d", info.FirstNewID, before)
	}
	for _, n := range info.NewBeta {
		if n.ID <= before {
			t.Fatalf("node %v has stale ID", n)
		}
	}
}
