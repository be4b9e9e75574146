package rete

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"soarpsme/internal/value"
)

// alphaKeyCases covers every shape of alpha test: constants of each value
// kind, every predicate, vs-field tests and disjunctions.
func alphaKeyCases() [][]AlphaTest {
	sym, i, f := value.SymVal, value.IntVal, value.FloatVal
	cases := [][]AlphaTest{
		nil,
		{{Field: 0, Pred: value.PredEq, Val: sym(17)}},
		{{Field: 1, Pred: value.PredEq, Val: sym(math.MaxUint32)}},
		{{Field: 1, Pred: value.PredNe, Val: i(-42)}},
		{{Field: 2, Pred: value.PredEq, Val: i(math.MinInt64)}},
		{{Field: 2, Pred: value.PredGe, Val: i(math.MaxInt64)}},
		{{Field: 3, Pred: value.PredEq, Val: value.Nil}},
		{{Field: 4, Pred: value.PredNe, Val: value.Nil}},
		{{Field: 12, Pred: value.PredEq, Val: sym(0)}},
		{{Field: 1, Pred: value.PredGt, VsField: true, Other: 4}},
		{{Field: 0, Pred: value.PredEq, VsField: true, Other: 0}},
		{{Field: 2, Disj: []value.Value{sym(5), i(7), f(2.5), value.Nil}}},
		{{Field: 2, Disj: []value.Value{}}},
		{
			{Field: 0, Pred: value.PredEq, Val: sym(3)},
			{Field: 1, Disj: []value.Value{sym(8), sym(9)}},
			{Field: 2, Pred: value.PredLt, Val: f(-0.5)},
			{Field: 2, Pred: value.PredNe, VsField: true, Other: 3},
		},
	}
	for _, x := range []float64{0, 1, -1, 2.5, 100, 0.1, 1e21, 1e-7, 123456789.125, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		cases = append(cases, []AlphaTest{{Field: 5, Pred: value.PredLe, Val: f(x)}})
	}
	for p := value.PredEq; p <= value.PredSameType+1; p++ {
		cases = append(cases,
			[]AlphaTest{{Field: 1, Pred: p, Val: i(3)}},
			[]AlphaTest{{Field: 1, Pred: p, VsField: true, Other: 2}})
	}
	return cases
}

// alphaKeySource compiles to alpha memories of every kind the builder
// makes: constants of each kind under each predicate, intra-CE variable
// tests and disjunctions.
const alphaKeySource = `
(literalize c a b d e)
(p p1 (c ^a x ^b 3 ^d 2.5) (c ^a <v> ^b <v>) --> (halt))
(p p2 (c ^a << x y 4 1.5 >> ^b { > 2 < 9 }) (c ^d <> nil ^e >= -7) --> (halt))
(p p3 (c ^a <x> ^b { <> <x> <y> } ^d { <=> <x> }) -(c ^e <= 0.001) --> (halt))
(p p4 (c ^a x ^b 3 ^d 2.5) (c ^a z ^e { < 1e3 >= -2 }) --> (halt))
`

// renderAlphaKeys is the golden text: one line per hand-built case, then
// every alpha-memory key of the compiled programs, sorted.
func renderAlphaKeys(t *testing.T) string {
	var sb strings.Builder
	for _, tests := range alphaKeyCases() {
		sb.Write(appendAlphaKey(nil, 7, tests))
		sb.WriteByte('\n')
	}
	srcs := []string{alphaKeySource}
	for _, name := range []string{"fib.ops", "monkey.ops"} {
		b, err := os.ReadFile(filepath.Join("..", "..", "examples", "ops", name))
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(b))
	}
	for _, src := range srcs {
		e := newTestEnv(t, src)
		var keys []string
		for k := range e.nw.own.alphaMems {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sb.WriteString("--\n")
		for _, k := range keys {
			sb.WriteString(k)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestAlphaKeyGolden pins the alpha sharing key byte for byte: base and own
// layers share memories through it, so a renderer change that moved one
// byte would silently stop a session's chunks sharing the image's alpha
// memories. testdata/alphakey.golden was written by the fmt-based renderer
// this one replaced.
func TestAlphaKeyGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "alphakey.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAlphaKeys(t); got != string(want) {
		t.Fatalf("alpha keys differ from the golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestAlphaKeyLookupAllocs: finding an existing alpha memory renders its
// key into a stack buffer and allocates nothing.
func TestAlphaKeyLookupAllocs(t *testing.T) {
	e := newTestEnv(t, alphaKeySource)
	cls, _ := e.tab.Lookup("c")
	x, _ := e.tab.Lookup("x")
	tests := []AlphaTest{{Field: 0, Pred: value.PredEq, Val: value.SymVal(x)}}
	am := e.nw.buildAlpha(cls, tests)
	if n := testing.AllocsPerRun(100, func() {
		if e.nw.buildAlpha(cls, tests) != am {
			t.Fatal("alpha memory not shared")
		}
	}); n != 0 {
		t.Fatalf("alpha lookup allocates %.1f times", n)
	}
}
