package chunk

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soarpsme/internal/ops5"
	"soarpsme/internal/rete"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// canonicalCases are production bodies covering every test kind, every
// value kind, every action kind and the make / bind-gensym / write shapes
// chunks and task programs contain.
func canonicalCases(t *testing.T) []*ops5.Production {
	sym, i, f := value.SymVal, value.IntVal, value.FloatVal
	ce := func(class value.Sym, tests ...ops5.AttrTest) *ops5.CondItem {
		return &ops5.CondItem{Kind: ops5.CondPos, CE: &ops5.CE{Class: class, Tests: tests}}
	}
	at := func(attr value.Sym, tests ...ops5.Test) ops5.AttrTest { return ops5.AttrTest{Attr: attr, Tests: tests} }
	konst := func(p value.Pred, v value.Value) ops5.Test { return ops5.Test{Kind: ops5.TestConst, Pred: p, Val: v} }
	vr := func(v value.Sym) ops5.Test { return ops5.Test{Kind: ops5.TestVar, Var: v} }
	set := func(attr value.Sym, e *ops5.Expr) ops5.AttrSet { return ops5.AttrSet{Attr: attr, Expr: e} }
	cexpr := func(v value.Value) *ops5.Expr { return &ops5.Expr{Kind: ops5.ExprConst, Val: v} }
	vexpr := func(v value.Sym) *ops5.Expr { return &ops5.Expr{Kind: ops5.ExprVar, Var: v} }

	neg := ce(9, at(1, vr(40)))
	neg.Kind = ops5.CondNeg
	cases := []*ops5.Production{
		{},
		{
			LHS: []*ops5.CondItem{
				ce(3, at(1, vr(40)), at(2, konst(value.PredEq, sym(17))), at(4, konst(value.PredNe, i(-42)))),
				ce(math.MaxUint32, at(1, vr(41), konst(value.PredGt, f(2.5)), konst(value.PredSameType, value.Nil)), at(5)),
				ce(4, at(2, ops5.Test{Kind: ops5.TestDisj, Disj: []value.Value{sym(5), i(7)}}), at(3, konst(value.PredLe, i(math.MinInt64)))),
				neg,
			},
			RHS: []*ops5.Action{
				{Kind: ops5.ActBind, Var: 42, Expr: &ops5.Expr{Kind: ops5.ExprGensym}},
				{Kind: ops5.ActMake, Class: 3, Sets: []ops5.AttrSet{
					set(1, vexpr(40)), set(2, vexpr(42)), set(3, cexpr(sym(11))), set(4, cexpr(i(math.MaxInt64))),
					set(5, cexpr(f(-0.5))), set(6, cexpr(value.Nil)),
					set(7, &ops5.Expr{Kind: ops5.ExprCompute, Op: '+', L: vexpr(40), R: cexpr(i(1))}),
					set(8, &ops5.Expr{Kind: ops5.ExprGensym}),
				}},
				{Kind: ops5.ActWrite, Args: []*ops5.Expr{cexpr(sym(12)), vexpr(40)}},
				{Kind: ops5.ActMake, Class: 5},
			},
		},
	}
	for _, x := range []float64{0, 1, 100, 0.1, 1e21, 1e-7, 123456789.125, math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64} {
		cases = append(cases, &ops5.Production{
			LHS: []*ops5.CondItem{ce(2, at(1, konst(value.PredEq, f(x))))},
			RHS: []*ops5.Action{{Kind: ops5.ActMake, Class: 2, Sets: []ops5.AttrSet{set(1, cexpr(f(x)))}}},
		})
	}
	var all []*ops5.Action
	for k := ops5.ActMake; k <= ops5.ActExcise+1; k++ {
		all = append(all, &ops5.Action{Kind: k, Class: value.Sym(k)})
	}
	cases = append(cases, &ops5.Production{RHS: all})

	// Chunks as the builder makes them.
	fx := newFixture()
	fx.id("g1")
	fx.id("o5")
	fx.id("n9")
	ctx := fx.wmeOf(1, "context", "goal-id", "g1", "slot", "state", "value", "s0")
	op := fx.wmeOf(1, "op", "id", "o5", "from", "c1")
	item := fx.wmeOf(2, "item", "goal-id", "g2", "value", "o5")
	acc := fx.wmeOf(1, "preference", "goal-id", "g1", "object", "o5", "kind", "acceptable")
	fx.subst[item.ID] = acc
	res := fx.wmeOf(1, "preference", "goal-id", "g1", "object", "o5", "kind", "best")
	fresh := fx.wmeOf(1, "out", "obj", "n9", "parent", "g1")
	num := fx.wmeOf(1, "count", "obj", "o5")
	num.Fields = append(num.Fields, value.IntVal(3), value.FloatVal(0.25))
	fx.reg.FieldIndex(num.Class, fx.tab.Intern("n"), true)
	fx.reg.FieldIndex(num.Class, fx.tab.Intern("w"), true)
	for _, created := range [][]*wme.WME{{res}, {fresh}, {res, fresh, num}} {
		rec := &Record{Prod: &rete.Production{Name: "eval"}, Matched: []*wme.WME{ctx, op, item, num}, Created: created, Level: 2}
		ast, _, err := fx.b.Build(rec)
		if err != nil || ast == nil {
			t.Fatalf("build: %v", err)
		}
		cases = append(cases, ast)
	}

	// Task programs, as parsed (canonical renders positive and negated CEs).
	for _, name := range []string{"fib.ops", "monkey.ops"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "ops", name))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ops5.Parse(string(src), value.NewTable())
		if err != nil {
			t.Fatal(err)
		}
	prods:
		for _, p := range prog.Productions {
			for _, ci := range p.LHS {
				if ci.CE == nil {
					continue prods
				}
			}
			cases = append(cases, p)
		}
	}
	return cases
}

func renderCanonical(t *testing.T) string {
	var sb strings.Builder
	for _, p := range canonicalCases(t) {
		sb.Write(appendCanonical(nil, p))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestCanonicalGolden pins the chunk deduplication key byte for byte.
// testdata/canonical.golden was written by the fmt-based renderer this one
// replaced; a byte moved would let a duplicate chunk through, or merge two
// different ones.
func TestCanonicalGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "canonical.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := renderCanonical(t); got != string(want) {
		t.Fatalf("canonical keys differ from the golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}
