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
func alphaKeyCases() [][]alphaTest {
	sym, i, f := value.SymVal, value.IntVal, value.FloatVal
	cases := [][]alphaTest{
		nil,
		{{field: 0, pred: value.PredEq, val: sym(17)}},
		{{field: 1, pred: value.PredEq, val: sym(math.MaxUint32)}},
		{{field: 1, pred: value.PredNe, val: i(-42)}},
		{{field: 2, pred: value.PredEq, val: i(math.MinInt64)}},
		{{field: 2, pred: value.PredGe, val: i(math.MaxInt64)}},
		{{field: 3, pred: value.PredEq, val: value.Nil}},
		{{field: 4, pred: value.PredNe, val: value.Nil}},
		{{field: 12, pred: value.PredEq, val: sym(0)}},
		{{field: 1, pred: value.PredGt, vsField: true, other: 4}},
		{{field: 0, pred: value.PredEq, vsField: true, other: 0}},
		{{field: 2, disj: []value.Value{sym(5), i(7), f(2.5), value.Nil}}},
		{{field: 2, disj: []value.Value{}}},
		{
			{field: 0, pred: value.PredEq, val: sym(3)},
			{field: 1, disj: []value.Value{sym(8), sym(9)}},
			{field: 2, pred: value.PredLt, val: f(-0.5)},
			{field: 2, pred: value.PredNe, vsField: true, other: 3},
		},
	}
	for _, x := range []float64{0, 1, -1, 2.5, 100, 0.1, 1e21, 1e-7, 123456789.125, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		cases = append(cases, []alphaTest{{field: 5, pred: value.PredLe, val: f(x)}})
	}
	for p := value.PredEq; p <= value.PredSameType+1; p++ {
		cases = append(cases,
			[]alphaTest{{field: 1, pred: p, val: i(3)}},
			[]alphaTest{{field: 1, pred: p, vsField: true, other: 2}})
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
	tests := []alphaTest{{field: 0, pred: value.PredEq, val: value.SymVal(x)}}
	am := e.nw.buildAlpha(cls, tests)
	if n := testing.AllocsPerRun(100, func() {
		if e.nw.buildAlpha(cls, tests) != am {
			t.Fatal("alpha memory not shared")
		}
	}); n != 0 {
		t.Fatalf("alpha lookup allocates %.1f times", n)
	}
}
