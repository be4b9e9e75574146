package rete

import (
	"testing"
	"testing/quick"

	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

func mkWME(id uint64) *wme.WME {
	return &wme.WME{ID: id, TimeTag: id, Class: 1, Fields: []value.Value{value.IntVal(int64(id))}}
}

func TestExtendBasics(t *testing.T) {
	w1, w2 := mkWME(1), mkWME(2)
	t1 := Extend(DummyTop, 0, w1)
	t2 := Extend(t1, 1, w2)
	if t1.n != 1 || t2.n != 2 {
		t.Fatalf("N wrong: %d %d", t1.n, t2.n)
	}
	if t2.WMEAt(0) != w1 || t2.WMEAt(1) != w2 {
		t.Fatalf("WMEAt wrong")
	}
	if t2.WMEAt(2) != nil {
		t.Fatalf("WMEAt(2) should be nil")
	}
	ws := t2.WMEs()
	if len(ws) != 2 || ws[0] != w1 || ws[1] != w2 {
		t.Fatalf("WMEs wrong: %v", ws)
	}
}

func TestTokenEquality(t *testing.T) {
	w1, w2, w3 := mkWME(1), mkWME(2), mkWME(3)
	a := Extend(Extend(DummyTop, 0, w1), 1, w2)
	b := Extend(Extend(DummyTop, 0, w1), 1, w2)
	if !a.Equal(b) {
		t.Fatalf("identical chains should be equal")
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("equal tokens must hash equal")
	}
	c := Extend(Extend(DummyTop, 0, w1), 1, w3)
	if a.Equal(c) {
		t.Fatalf("different wmes should differ")
	}
	d := Extend(Extend(DummyTop, 0, w2), 1, w1) // swapped CE assignment
	if a.Equal(d) {
		t.Fatalf("different CE assignment should differ")
	}
	if !DummyTop.Equal(DummyTop) {
		t.Fatalf("dummy equals itself")
	}
	if a.Equal(nil) {
		t.Fatalf("token != nil")
	}
}

func TestPairTokenEquality(t *testing.T) {
	w1, w2, w3, w4 := mkWME(1), mkWME(2), mkWME(3), mkWME(4)
	l := Extend(Extend(DummyTop, 0, w1), 1, w2)
	r := Extend(Extend(DummyTop, 2, w3), 3, w4)
	p := pair(l, r)
	if p.n != 4 {
		t.Fatalf("pair N = %d", p.n)
	}
	if p.WMEAt(0) != w1 || p.WMEAt(3) != w4 || p.WMEAt(2) != w3 {
		t.Fatalf("pair WMEAt wrong")
	}
	// Pair equality across identical structure.
	p2 := pair(Extend(Extend(DummyTop, 0, w1), 1, w2), Extend(Extend(DummyTop, 2, w3), 3, w4))
	if !p.Equal(p2) {
		t.Fatalf("equal pairs should be equal")
	}
	ws := p.WMEs()
	if len(ws) != 4 || ws[0] != w1 || ws[1] != w2 || ws[2] != w3 || ws[3] != w4 {
		t.Fatalf("pair WMEs order wrong: %v", ws)
	}
}

func TestAncestorAtAndStrip(t *testing.T) {
	w1, w2, w3 := mkWME(1), mkWME(2), mkWME(3)
	t3 := Extend(Extend(Extend(DummyTop, 0, w1), 1, w2), 2, w3)
	a := ancestorAt(t3, 2)
	if a.n != 2 || a.WMEAt(1) != w2 {
		t.Fatalf("ancestorAt wrong")
	}
	if ancestorAt(t3, 0) != DummyTop {
		t.Fatalf("ancestorAt(0) should be dummy")
	}
	s := stripAbove(t3, 1)
	if s.n != 2 || s.WMEAt(1) != w2 || s.WMEAt(2) != w3 || s.WMEAt(0) != nil {
		t.Fatalf("stripAbove wrong: %v", s)
	}
	if stripAbove(t3, 3) != DummyTop {
		t.Fatalf("stripAbove full should be dummy")
	}
}

func TestCtxOf(t *testing.T) {
	w1, w2, w3, w4 := mkWME(1), mkWME(2), mkWME(3), mkWME(4)
	ctx := Extend(DummyTop, 0, w1)
	g1 := Extend(ctx, 1, w2)
	g2full := Extend(Extend(ctx, 2, w3), 3, w4)
	p := pair(g1, stripAbove(g2full, 1))
	if got := ctxOf(p, 1); !got.Equal(ctx) {
		t.Fatalf("ctxOf pair wrong: %v", got)
	}
	if got := ctxOf(g1, 1); !got.Equal(ctx) {
		t.Fatalf("ctxOf linear wrong")
	}
}

func TestTokenString(t *testing.T) {
	if DummyTop.String() != "<top>" {
		t.Fatalf("dummy string = %q", DummyTop.String())
	}
	var nilTok *Token
	if nilTok.String() != "<nil>" {
		t.Fatalf("nil string")
	}
	tk := Extend(DummyTop, 0, mkWME(7))
	if tk.String() != "[w7]" {
		t.Fatalf("token string = %q", tk.String())
	}
}

// Property: tokens built from the same (ce, wme-id) sequence are equal and
// hash-equal; a permuted CE assignment is not equal unless identical.
func TestTokenEqualityProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		if len(ids) > 8 {
			ids = ids[:8]
		}
		a, b := DummyTop, DummyTop
		for i, id := range ids {
			w := mkWME(uint64(id) + 1)
			a = Extend(a, i, w)
			b = Extend(b, i, mkWME(uint64(id)+1))
		}
		// Note: wme identity matters (pointers differ but IDs equal).
		return a.Equal(b) == (a.Hash() == b.Hash() && tokensSameIDs(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func tokensSameIDs(a, b *Token) bool {
	wa, wb := a.WMEs(), b.WMEs()
	if len(wa) != len(wb) {
		return false
	}
	for i := range wa {
		if wa[i].ID != wb[i].ID {
			return false
		}
	}
	return true
}

// Property: stripAbove(t, n) + ancestorAt(t, n) partition the token.
func TestStripPartitionProperty(t *testing.T) {
	f := func(n uint8, cut uint8) bool {
		depth := int(n%6) + 1
		c := int16(cut) % int16(depth+1)
		tok := DummyTop
		for i := 0; i < depth; i++ {
			tok = Extend(tok, i, mkWME(uint64(i)+1))
		}
		head := ancestorAt(tok, c)
		tail := stripAbove(tok, c)
		return int(head.n)+int(tail.n) == depth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
