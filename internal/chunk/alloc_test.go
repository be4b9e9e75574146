package chunk

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"

	"soarpsme/internal/ops5"
	"soarpsme/internal/rete"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// chainRecord records a firing at level 2 whose result summarizes n linked
// supergoal conditions: link(g1→x1), link(x1→x2), ... The firing matched
// the first half directly and the rest through a subgoal wme another firing
// created from them, so Build backtraces. The result makes an object with
// a fresh identifier, which the chunk binds to a gensym.
func chainRecord(f *fixture, n int) *Record {
	f.id("g1")
	f.id("n9")
	prev := "g1"
	conds := make([]*wme.WME, n)
	for i := range conds {
		next := "x" + strconv.Itoa(i+1)
		f.id(next)
		conds[i] = f.wmeOf(1, "link", "obj", prev, "next", next, "tag", "k"+strconv.Itoa(i))
		prev = next
	}
	inter := f.wmeOf(2, "scratch", "obj", "g2", "v", prev)
	f.recs[inter.ID] = &Record{Prod: &rete.Production{Name: "mk"}, Matched: conds[n/2:], Created: []*wme.WME{inter}, Level: 2}
	res := f.wmeOf(1, "out", "obj", "n9", "parent", "g1", "kind", "done")
	matched := append(conds[:n/2:n/2], inter)
	return &Record{Prod: &rete.Production{Name: "res"}, Matched: matched, Created: []*wme.WME{res}, Level: 2}
}

// TestCarvedASTDoesNotAlias shows that the slices of a chunk's AST, carved
// from shared arrays, end where their own span ends: appending to one CE's
// tests, to one attribute's tests or to one action's sets copies instead
// of writing into the neighbour's span, so neither the neighbours nor the
// deduplication key change.
func TestCarvedASTDoesNotAlias(t *testing.T) {
	f := newFixture()
	ast, _, err := f.b.Build(chainRecord(f, 4))
	if err != nil || ast == nil {
		t.Fatalf("build: %v", err)
	}
	if len(ast.LHS) < 3 {
		t.Fatalf("chunk has %d CEs, want at least 3", len(ast.LHS))
	}
	key := appendCanonical(nil, ast)
	snapshot := func() []ops5.CE {
		out := make([]ops5.CE, len(ast.LHS))
		for i, ci := range ast.LHS {
			out[i] = ops5.CE{Class: ci.CE.Class}
			for _, at := range ci.CE.Tests {
				out[i].Tests = append(out[i].Tests, ops5.AttrTest{Attr: at.Attr, Tests: append([]ops5.Test(nil), at.Tests...)})
			}
		}
		return out
	}
	before := snapshot()

	junk := ops5.Test{Kind: ops5.TestConst, Val: value.IntVal(-1)}
	first := ast.LHS[0].CE
	grown := append(first.Tests, ops5.AttrTest{Attr: 999, Tests: []ops5.Test{junk}})
	inner := append(first.Tests[0].Tests, junk)
	sets := append(ast.RHS[len(ast.RHS)-1].Sets, ops5.AttrSet{Attr: 999, Expr: &ops5.Expr{Kind: ops5.ExprConst, Val: value.IntVal(-1)}})
	if got := appendCanonical(nil, ast); !bytes.Equal(got, key) {
		t.Fatalf("appends to copies of the AST's slices changed its key:\n got %s\nwant %s", got, key)
	}
	if after := snapshot(); !reflect.DeepEqual(after, before) {
		t.Fatalf("appends to copies of the AST's slices changed its CEs")
	}

	// Stored back, the appends change the first CE alone.
	first.Tests = grown
	first.Tests[0].Tests = inner
	after := snapshot()
	if !reflect.DeepEqual(after[1:], before[1:]) {
		t.Fatalf("growing the first CE changed its neighbours")
	}
	if len(after[0].Tests) != len(before[0].Tests)+1 || len(after[0].Tests[0].Tests) != 2 {
		t.Fatalf("the first CE did not grow: %+v", after[0])
	}
	if len(sets) != len(ast.RHS[len(ast.RHS)-1].Sets)+1 {
		t.Fatalf("append to an action's sets did not grow")
	}
}

// TestBuildAllocsIndependentOfSize pins that a chunk costs a fixed number
// of allocations: its AST is carved from one exact-size array per node
// type, and backtrace, ordering and variablization run in the Builder's
// reused scratch. A 3-condition and a 12-condition chunk cost the same.
// Each measured Build rebuilds a chunk already built (a duplicate), which
// renders the whole AST and keys it, but names nothing.
func TestBuildAllocsIndependentOfSize(t *testing.T) {
	f := newFixture()
	allocs := map[int]float64{}
	for _, n := range []int{3, 12} {
		rec := chainRecord(f, n)
		ast, _, err := f.b.Build(rec) // warms levels, records, scratch and v1..vn
		if err != nil || ast == nil {
			t.Fatalf("build %d: %v", n, err)
		}
		if len(ast.LHS) != n {
			t.Fatalf("chunk has %d CEs, want %d", len(ast.LHS), n)
		}
		allocs[n] = testing.AllocsPerRun(100, func() {
			if _, _, err := f.b.Build(rec); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("allocations per Build: %v", allocs)
	if allocs[3] != allocs[12] {
		t.Fatalf("a 3-condition chunk costs %v allocations, a 12-condition one %v: the count grows with the chunk", allocs[3], allocs[12])
	}
}

// BenchmarkBuild builds the chunk of one recorded six-condition firing;
// after the first iteration every Build is a duplicate, so it measures the
// backtrace, the ordering, the AST and the key.
func BenchmarkBuild(b *testing.B) {
	f := newFixture()
	rec := chainRecord(f, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.b.Build(rec); err != nil {
			b.Fatal(err)
		}
	}
}
