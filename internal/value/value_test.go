package value

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestInternIdempotent(t *testing.T) {
	tab := NewTable()
	a := tab.Intern("block")
	b := tab.Intern("block")
	if a != b {
		t.Fatalf("Intern not idempotent: %d vs %d", a, b)
	}
	c := tab.Intern("hand")
	if c == a {
		t.Fatalf("distinct names interned to same Sym")
	}
	if got := tab.Name(a); got != "block" {
		t.Fatalf("Name(a) = %q, want block", got)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
}

func TestLookup(t *testing.T) {
	tab := NewTable()
	if _, ok := tab.Lookup("missing"); ok {
		t.Fatalf("Lookup found missing symbol")
	}
	s := tab.Intern("x")
	got, ok := tab.Lookup("x")
	if !ok || got != s {
		t.Fatalf("Lookup(x) = %v,%v want %v,true", got, ok, s)
	}
}

func TestNameUnknown(t *testing.T) {
	tab := NewTable()
	if tab.Name(NilSym) != "" {
		t.Fatalf("Name(NilSym) nonempty")
	}
	if tab.Name(999) != "" {
		t.Fatalf("Name(unknown) nonempty")
	}
}

func TestInternConcurrent(t *testing.T) {
	tab := NewTable()
	const G = 16
	var wg sync.WaitGroup
	syms := make([][]Sym, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]Sym, 100)
			for i := range out {
				out[i] = tab.Intern(fmt.Sprintf("s%d", i))
			}
			syms[g] = out
		}(g)
	}
	wg.Wait()
	for g := 1; g < G; g++ {
		for i := range syms[g] {
			if syms[g][i] != syms[0][i] {
				t.Fatalf("goroutine %d interned s%d differently", g, i)
			}
		}
	}
	if tab.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tab.Len())
	}
}

func TestValueEqualMixedNumeric(t *testing.T) {
	if !IntVal(3).Equal(FloatVal(3.0)) {
		t.Fatalf("3 should equal 3.0")
	}
	if IntVal(3).Equal(FloatVal(3.5)) {
		t.Fatalf("3 should not equal 3.5")
	}
	if IntVal(3).Equal(SymVal(3)) {
		t.Fatalf("int 3 should not equal sym#3")
	}
	if !Nil.Equal(Nil) {
		t.Fatalf("nil should equal nil")
	}
}

func TestValueAccessors(t *testing.T) {
	if IntVal(-7).Int() != -7 {
		t.Fatalf("Int roundtrip failed")
	}
	if FloatVal(2.5).Float() != 2.5 {
		t.Fatalf("Float roundtrip failed")
	}
	if !Nil.IsNil() || IntVal(0).IsNil() {
		t.Fatalf("IsNil wrong")
	}
	if IntVal(2).AsFloat() != 2 || FloatVal(2.5).AsFloat() != 2.5 || SymVal(1).AsFloat() != 0 {
		t.Fatalf("AsFloat wrong")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{IntVal(1), IntVal(2), -1, true},
		{IntVal(2), IntVal(2), 0, true},
		{IntVal(3), IntVal(2), 1, true},
		{FloatVal(1.5), IntVal(2), -1, true},
		{IntVal(2), FloatVal(1.5), 1, true},
		{FloatVal(2), FloatVal(2), 0, true},
		{SymVal(1), IntVal(2), 0, false},
		{IntVal(2), Nil, 0, false},
	}
	for i, c := range cases {
		cmp, ok := c.a.compare(c.b)
		if cmp != c.cmp || ok != c.ok {
			t.Errorf("case %d: Compare = %d,%v want %d,%v", i, cmp, ok, c.cmp, c.ok)
		}
	}
}

func TestPredApply(t *testing.T) {
	cases := []struct {
		p    Pred
		a, b Value
		want bool
	}{
		{PredEq, IntVal(1), IntVal(1), true},
		{PredEq, SymVal(5), SymVal(5), true},
		{PredEq, SymVal(5), SymVal(6), false},
		{PredNe, SymVal(5), SymVal(6), true},
		{PredNe, IntVal(1), FloatVal(1), false},
		{PredLt, IntVal(1), IntVal(2), true},
		{PredLt, IntVal(2), IntVal(1), false},
		{PredLt, SymVal(1), IntVal(2), false}, // relational on symbol fails
		{PredLe, IntVal(2), IntVal(2), true},
		{PredGt, FloatVal(2.5), IntVal(2), true},
		{PredGe, IntVal(2), FloatVal(2.5), false},
		{PredSameType, IntVal(1), FloatVal(9), true},
		{PredSameType, IntVal(1), SymVal(9), false},
		{PredSameType, SymVal(1), SymVal(9), true},
		{PredSameType, Nil, SymVal(9), false},
	}
	for i, c := range cases {
		if got := c.p.Apply(c.a, c.b); got != c.want {
			t.Errorf("case %d: %v %v %v = %v, want %v", i, c.a, c.p, c.b, got, c.want)
		}
	}
}

func TestParsePred(t *testing.T) {
	for _, s := range []string{"=", "<>", "<", "<=", ">", ">=", "<=>"} {
		p, ok := ParsePred(s)
		if !ok {
			t.Fatalf("ParsePred(%q) failed", s)
		}
		if p.String() != s {
			t.Fatalf("ParsePred(%q).String() = %q", s, p.String())
		}
	}
	if _, ok := ParsePred("~"); ok {
		t.Fatalf("ParsePred accepted garbage")
	}
}

func TestPredStringUnknown(t *testing.T) {
	if Pred(99).String() == "" {
		t.Fatalf("unknown pred should still render")
	}
	if Kind(99).String() == "" {
		t.Fatalf("unknown kind should still render")
	}
}

// Property: Equal is reflexive and symmetric over generated values.
func TestEqualPropertyReflexiveSymmetric(t *testing.T) {
	gen := func(k uint8, n int64, f float64) bool {
		var v Value
		switch k % 4 {
		case 0:
			v = Nil
		case 1:
			v = SymVal(Sym(n&0xffff) + 1)
		case 2:
			v = IntVal(n)
		case 3:
			v = FloatVal(f)
		}
		w := v // copy
		return v.Equal(v) && v.Equal(w) == w.Equal(v)
	}
	if err := quick.Check(gen, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: hash is deterministic and int/float/sym payload spaces do not
// collide for identical raw payloads.
func TestHashProperty(t *testing.T) {
	f := func(n int64) bool {
		a, b := IntVal(n), IntVal(n)
		if a.Hash() != b.Hash() {
			return false
		}
		// Same bit payload in different kinds must hash differently.
		return IntVal(int64(uint32(n))).Hash() != SymVal(Sym(uint32(n))).Hash() || uint32(n) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare agrees with float ordering for ints.
func TestComparePropertyInts(t *testing.T) {
	f := func(a, b int32) bool {
		cmp, ok := IntVal(int64(a)).compare(IntVal(int64(b)))
		if !ok {
			return false
		}
		switch {
		case a < b:
			return cmp == -1
		case a > b:
			return cmp == 1
		}
		return cmp == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueString(t *testing.T) {
	tab := NewTable()
	v := tab.SymV("blue")
	if got := tab.Format(v); got != "blue" {
		t.Fatalf("Format = %q", got)
	}
	if got := tab.Format(IntVal(42)); got != "42" {
		t.Fatalf("Format(42) = %q", got)
	}
	if Nil.String() != "nil" {
		t.Fatalf("Nil.String = %q", Nil.String())
	}
	if FloatVal(1.5).String() != "1.5" {
		t.Fatalf("Float String = %q", FloatVal(1.5).String())
	}
}

// TestValueStringPinned pins String for the four kinds (the bytes alpha
// keys and chunk signatures are made of) and requires AppendTo to append
// exactly String's bytes.
func TestValueStringPinned(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{Nil, "nil"},
		{SymVal(7), "sym#7"},
		{SymVal(4294967295), "sym#4294967295"},
		{IntVal(-42), "-42"},
		{IntVal(-9223372036854775808), "-9223372036854775808"},
		{FloatVal(2.5), "2.5"},
		{FloatVal(100), "100"},
		{FloatVal(1e21), "1e+21"},
		{FloatVal(1e-7), "1e-07"},
		{Value{Kind: 9}, "?"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.v, got, tc.want)
		}
		if got := string(tc.v.AppendTo([]byte("x|"))); got != "x|"+tc.want {
			t.Errorf("%#v.AppendTo = %q, want %q", tc.v, got, "x|"+tc.want)
		}
		if got := fmt.Sprintf("%v", tc.v); got != tc.want {
			t.Errorf("%%v of %#v = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestFloatNormalization(t *testing.T) {
	nz := FloatVal(math_Copysign0())
	pz := FloatVal(0)
	if nz != pz {
		t.Fatalf("-0 and +0 should be identical Values")
	}
}

func math_Copysign0() float64 {
	z := 0.0
	return -z
}

// Len returns the number of interned symbols.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.names) - 1
}
