package rete

import (
	"fmt"
	"strings"
	"testing"

	"soarpsme/internal/wme"
)

// chainProd is a cypress-style dependent join chain: n positive CEs where
// each step's ^prev references the previous step's ^id. With ContextCEs=2
// and GroupCEs=2 it partitions into groups whose cross-group tests link
// adjacent groups — the shape the balanced combine must cover with
// LCA-placed BB tests.
const chainLit = `
(literalize step id prev op)
`

func chainProd(n int) string {
	var b strings.Builder
	b.WriteString("(p chain\n  (step ^id <s1> ^prev r0 ^op a1)\n")
	for i := 2; i <= n; i++ {
		fmt.Fprintf(&b, "  (step ^id <s%d> ^prev <s%d> ^op a%d)\n", i, i-1, i)
	}
	fmt.Fprintf(&b, "  -->\n  (make out ^last <s%d>))\n", n)
	return b.String()
}

// chainSrc is a chain exactly BilinearDepth CEs long: the shortest that
// BilinearAuto restructures.
var chainSrc = chainLit + chainProd(BilinearDepth)

func chainWMEs(e *testEnv) []*wme.WME {
	ws := make([]*wme.WME, 0, BilinearDepth)
	prev := "r0"
	for i := 1; i <= BilinearDepth; i++ {
		id := fmt.Sprintf("s%d", i)
		ws = append(ws, e.wmeOf("step", "id", id, "prev", prev, "op", fmt.Sprintf("a%d", i)))
		prev = id
	}
	return ws
}

func autoOpts() Options {
	opts := DefaultOptions()
	opts.Organization = BilinearAuto
	opts.ContextCEs = 2
	opts.GroupCEs = 2
	return opts
}

// netDepth is the longest root-to-leaf path in the beta network, counting
// both inputs of pair joins (each bilinear join is a child of its left AND
// right parent).
func netDepth(e *testEnv) int {
	max := 0
	var rec func(n *BetaNode, d int)
	rec = func(n *BetaNode, d int) {
		if d > max {
			max = d
		}
		for _, c := range n.Children {
			rec(c, d+1)
		}
	}
	e.nw.WalkBeta(func(n *BetaNode) {
		if n.Parent == nil {
			rec(n, 1)
		}
	})
	return max
}

// TestBilinearAutoSelection: auto restructures exactly the productions
// whose linear chain reaches BilinearDepth, and marks them.
func TestBilinearAutoSelection(t *testing.T) {
	for _, n := range []int{BilinearDepth - 1, BilinearDepth, BilinearDepth + 1} {
		e := newEnvOpts(t, bilinProg+chainLit+chainProd(n), autoOpts())
		if p := e.nw.Lookup("chain"); p == nil || p.Restructured != (n >= BilinearDepth) {
			t.Fatalf("%d-CE chain at depth %d: %+v", n, BilinearDepth, p)
		}
		// Short production in the same network stays linear.
		if p := e.nw.Lookup("base"); p == nil || p.Restructured {
			t.Fatalf("short production restructured: %+v", p)
		}
	}
	// Organization=Linear never restructures regardless of depth.
	lin := newTestEnv(t, bilinProg+chainSrc)
	if p := lin.nw.Lookup("chain"); p == nil || p.Restructured {
		t.Fatalf("linear network marked restructured")
	}
}

// TestBilinearAutoEquivalence: the balanced binary pair-join tree produces
// the same conflict set as the linear chain, through adds, a mid-chain
// delete (full retraction ripple across the tree) and a re-add.
func TestBilinearAutoEquivalence(t *testing.T) {
	lin := newTestEnv(t, chainSrc)
	aut := newEnvOpts(t, chainSrc, autoOpts())
	if p := aut.nw.Lookup("chain"); p == nil || !p.Restructured {
		t.Fatal("chain not restructured")
	}

	var linWS, autWS []*wme.WME
	for _, env := range []*testEnv{lin, aut} {
		ws := chainWMEs(env)
		for _, w := range ws {
			env.add(w)
		}
		if env == lin {
			linWS = ws
		} else {
			autWS = ws
		}
	}
	lk, ak := lin.cs.keys(), aut.cs.keys()
	if len(lk) != 1 || len(ak) != 1 || lk[0] != ak[0] {
		t.Fatalf("auto CS %v != linear %v", ak, lk)
	}

	// Delete a step in the middle of group 1: both must fully retract.
	lin.remove(linWS[5])
	aut.remove(autWS[5])
	if len(lin.cs.keys()) != 0 || len(aut.cs.keys()) != 0 {
		t.Fatalf("retraction diverged: linear %v auto %v", lin.cs.keys(), aut.cs.keys())
	}
	// Re-add: both match again with identical keys.
	lin.add(lin.wmeOf("step", "id", "s6", "prev", "s5", "op", "a6"))
	aut.add(aut.wmeOf("step", "id", "s6", "prev", "s5", "op", "a6"))
	lk, ak = lin.cs.keys(), aut.cs.keys()
	if len(lk) != 1 || len(ak) != 1 {
		t.Fatalf("re-add diverged: linear %v auto %v", lk, ak)
	}
	if errs := aut.nw.Audit(aut.mem); len(errs) != 0 {
		t.Fatalf("audit after auto bilinear churn: %v", errs)
	}
	if n := aut.nw.Mem.Tombstones(); n != 0 {
		t.Fatalf("tombstones: %d", n)
	}
}

// TestBilinearAutoBalancedDepth: the balanced tree is strictly shallower
// than the fixed left-to-right pair-join spine, which is strictly shallower
// than the linear chain (paper Fig 6-8: depth ctx+group+ceil(log2 G) vs
// ctx+group+G-1 vs N).
func TestBilinearAutoBalancedDepth(t *testing.T) {
	lin := newTestEnv(t, chainSrc)

	all := autoOpts()
	all.Organization = Bilinear
	spine := newEnvOpts(t, chainSrc, all)

	aut := newEnvOpts(t, chainSrc, autoOpts())

	dl, ds, da := netDepth(lin), netDepth(spine), netDepth(aut)
	if !(da < ds && ds < dl) {
		t.Fatalf("depth ordering violated: auto %d, spine %d, linear %d", da, ds, dl)
	}
}

// TestBilinearAutoRuntimeAddition: an auto-restructured production added at
// run time over loaded WM builds the same instantiations as an up-front
// compile (the chunking path on the PR 9 CoW suffix).
func TestBilinearAutoRuntimeAddition(t *testing.T) {
	opts := autoOpts()

	ref := newEnvOpts(t, bilinProg+chainSrc, opts)
	for _, w := range chainWMEs(ref) {
		ref.add(w)
	}

	cand := newEnvOpts(t, chainLit+bilinProg, opts)
	for _, w := range chainWMEs(cand) {
		cand.add(w)
	}
	runtimeAddWithUpdate(t, cand, chainProd(BilinearDepth))
	if p := cand.nw.Lookup("chain"); p == nil || !p.Restructured {
		t.Fatal("runtime-added chain not restructured")
	}

	rk, ck := ref.cs.keys(), cand.cs.keys()
	if fmt.Sprint(rk) != fmt.Sprint(ck) {
		t.Fatalf("auto runtime addition diverged:\n up-front: %v\n  runtime: %v", rk, ck)
	}

	// Excise cleans up the balanced tree; re-adds still match nothing stale.
	if err := cand.nw.RemoveProduction("chain"); err != nil {
		t.Fatal(err)
	}
	for _, k := range cand.cs.keys() {
		if len(k) > 5 && k[:5] == "chain" {
			t.Fatalf("chain instantiation survived excise: %v", cand.cs.keys())
		}
	}
	if errs := cand.nw.Audit(cand.mem); len(errs) != 0 {
		t.Fatalf("audit after excise: %v", errs)
	}
}

// TestBilinearTrailingNegationPlacement pins the trailing-negation rule the
// group partitioner documents: a negation that textually follows a group's
// final positive CE attaches to that (full) group — where its variables are
// in scope — not to the next group, and not to the combined line. The
// structure check asserts the KindNot sits below the pair join; the
// behavior check asserts linear equivalence under block/unblock.
func TestBilinearTrailingNegationPlacement(t *testing.T) {
	src := `
(literalize item id kind val)
(literalize blockv v)
(p trail
  (item ^id <a> ^kind k1)
  (item ^id <b> ^kind k2)
  (item ^id <c> ^kind k3 ^val <v1>)
  (item ^id <d> ^kind k4 ^val <v2>)
  -(blockv ^v <v2>)
  (item ^id <e> ^kind k5)
  -->
  (make out))
`
	opts := DefaultOptions()
	opts.Organization = Bilinear
	opts.ContextCEs = 2
	opts.GroupCEs = 2
	bil := newEnvOpts(t, src, opts)

	// Structure: P <- pair join; the pair join's LEFT input chain ends in
	// the negation (it stayed with group 0, the group whose bindings it
	// references), so it is not serialized behind the combined line.
	pn := bil.nw.Lookup("trail").PNode
	if pn.Parent.Kind != KindJoinBB {
		t.Fatalf("negation deferred to combined line: P parent is %v", pn.Parent)
	}
	if pn.Parent.Parent.Kind != KindNot {
		t.Fatalf("trailing negation not attached to its full group: left input is %v", pn.Parent.Parent)
	}

	// Behavior: identical to linear under block/unblock of the negation.
	lin := newTestEnv(t, src)
	for _, env := range []*testEnv{lin, bil} {
		ws := []*wme.WME{
			env.wmeOf("item", "id", "i1", "kind", "k1"),
			env.wmeOf("item", "id", "i2", "kind", "k2"),
			env.wmeOf("item", "id", "i3", "kind", "k3", "val", "x"),
			env.wmeOf("item", "id", "i4", "kind", "k4", "val", "y"),
			env.wmeOf("item", "id", "i5", "kind", "k5"),
		}
		for _, w := range ws {
			env.add(w)
		}
		if len(env.cs.keys()) != 1 {
			t.Fatalf("base match failed: %v", env.cs.keys())
		}
		bl := env.wmeOf("blockv", "v", "y")
		env.add(bl)
		if len(env.cs.keys()) != 0 {
			t.Fatalf("trailing negation did not block: %v", env.cs.keys())
		}
		env.remove(bl)
		if len(env.cs.keys()) != 1 {
			t.Fatalf("unblock failed: %v", env.cs.keys())
		}
		// A blockv on the OTHER group's binding must not block.
		bl2 := env.wmeOf("blockv", "v", "zzz")
		env.add(bl2)
		if len(env.cs.keys()) != 1 {
			t.Fatalf("unrelated blockv blocked: %v", env.cs.keys())
		}
	}
	lk, bk := lin.cs.keys(), bil.cs.keys()
	if fmt.Sprint(lk) != fmt.Sprint(bk) {
		t.Fatalf("bilinear CS %v != linear %v", bk, lk)
	}
}
