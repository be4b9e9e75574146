package wme

import (
	"slices"
	"testing"
	"testing/quick"

	"soarpsme/internal/value"
)

func newEnv() (*value.Table, *Registry, *Memory) {
	return value.NewTable(), NewRegistry(), NewMemory()
}

func TestDeclareAndIndex(t *testing.T) {
	tab, reg, _ := newEnv()
	block := tab.Intern("block")
	name, color := tab.Intern("name"), tab.Intern("color")
	s := reg.Declare(block, name, color)
	if s.Width() != 2 {
		t.Fatalf("Width = %d, want 2", s.Width())
	}
	i, ok := s.attrIndex(name, false)
	if !ok || i != 0 {
		t.Fatalf("Index(name) = %d,%v", i, ok)
	}
	i, ok = s.attrIndex(color, false)
	if !ok || i != 1 {
		t.Fatalf("Index(color) = %d,%v", i, ok)
	}
	if _, ok := s.attrIndex(tab.Intern("zzz"), false); ok {
		t.Fatalf("Index found undeclared attr without extend")
	}
	i, ok = s.attrIndex(tab.Intern("zzz"), true)
	if !ok || i != 2 {
		t.Fatalf("extend Index = %d,%v", i, ok)
	}
}

func TestDeclareIdempotentIndices(t *testing.T) {
	tab, reg, _ := newEnv()
	c := tab.Intern("c")
	a1, a2 := tab.Intern("a1"), tab.Intern("a2")
	reg.Declare(c, a1, a2)
	reg.Declare(c, a2, a1) // re-declare in different order must not move indices
	i1, _ := reg.FieldIndex(c, a1, false)
	i2, _ := reg.FieldIndex(c, a2, false)
	if i1 != 0 || i2 != 1 {
		t.Fatalf("indices moved: a1=%d a2=%d", i1, i2)
	}
}

func TestRegistryGetExtend(t *testing.T) {
	tab, reg, _ := newEnv()
	c := tab.Intern("state")
	if reg.Get(c, false) != nil {
		t.Fatalf("Get found undeclared class")
	}
	s := reg.Get(c, true)
	if s == nil {
		t.Fatalf("Get extend did not create class")
	}
	if got := reg.Get(c, false); got != s {
		t.Fatalf("Get returned different schema")
	}
	if cls := reg.Classes(); len(cls) != 1 || cls[0] != c {
		t.Fatalf("Classes = %v", cls)
	}
}

// TestRegistryClone: a clone keeps every field index, and from then on the
// two registries extend apart.
func TestRegistryClone(t *testing.T) {
	tab, reg, _ := newEnv()
	c, x, y := tab.Intern("c"), tab.Intern("x"), tab.Intern("y")
	reg.Declare(c, x)
	clone := reg.Clone()
	if i, ok := clone.FieldIndex(c, x, false); !ok || i != 0 {
		t.Fatalf("clone: FieldIndex(x) = %d, %v", i, ok)
	}
	clone.FieldIndex(c, y, true)
	reg.Declare(tab.Intern("d"))
	if _, ok := reg.FieldIndex(c, y, false); ok {
		t.Fatal("extending the clone extended the original")
	}
	if got := clone.Classes(); !slices.Equal(got, []value.Sym{c}) {
		t.Fatalf("declaring in the original declared in the clone: %v", got)
	}
}

func TestMemoryInsertDelete(t *testing.T) {
	tab, reg, m := newEnv()
	c := tab.Intern("block")
	reg.Declare(c, tab.Intern("name"))
	w := m.Make(c, []value.Value{tab.SymV("b1")})
	m.Insert(w)
	if m.Len() != 1 || m.Get(w.ID) != w {
		t.Fatalf("insert failed")
	}
	if !m.Delete(w) {
		t.Fatalf("delete failed")
	}
	if m.Delete(w) {
		t.Fatalf("double delete succeeded")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after delete", m.Len())
	}
}

func TestInsertDuplicateErrors(t *testing.T) {
	tab, _, m := newEnv()
	w := m.Make(tab.Intern("c"), nil)
	if err := m.Insert(w); err != nil {
		t.Fatalf("first insert errored: %v", err)
	}
	if err := m.Insert(w); err == nil {
		t.Fatalf("duplicate insert did not error")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after rejected duplicate, want 1", m.Len())
	}
}

func TestTimeTagsMonotone(t *testing.T) {
	tab, _, m := newEnv()
	c := tab.Intern("c")
	var last uint64
	for i := 0; i < 10; i++ {
		w := m.Make(c, nil)
		if w.TimeTag <= last {
			t.Fatalf("time tag not monotone: %d after %d", w.TimeTag, last)
		}
		last = w.TimeTag
	}
}

func TestFindEqual(t *testing.T) {
	tab, reg, m := newEnv()
	c := tab.Intern("block")
	reg.Declare(c, tab.Intern("name"), tab.Intern("color"))
	w1 := m.Make(c, []value.Value{tab.SymV("b1"), tab.SymV("blue")})
	m.Insert(w1)
	w2 := m.Make(c, []value.Value{tab.SymV("b1"), tab.SymV("blue")})
	if got := m.FindEqual(w2); got != w1 {
		t.Fatalf("FindEqual = %v, want w1", got)
	}
	w3 := m.Make(c, []value.Value{tab.SymV("b1"), tab.SymV("red")})
	if got := m.FindEqual(w3); got != nil {
		t.Fatalf("FindEqual found non-equal wme")
	}
	m.Delete(w1)
	if got := m.FindEqual(w2); got != nil {
		t.Fatalf("FindEqual found deleted wme")
	}
}

func TestEqualContentsTrailingNil(t *testing.T) {
	tab, _, m := newEnv()
	c := tab.Intern("c")
	a := m.Make(c, []value.Value{tab.SymV("x"), value.Nil})
	b := m.Make(c, []value.Value{tab.SymV("x")})
	if !a.EqualContents(b) || !b.EqualContents(a) {
		t.Fatalf("trailing Nil fields should compare equal")
	}
}

func TestFieldOutOfRange(t *testing.T) {
	tab, _, m := newEnv()
	w := m.Make(tab.Intern("c"), []value.Value{value.IntVal(1)})
	if !w.Field(5).IsNil() || !w.Field(-1).IsNil() {
		t.Fatalf("out-of-range Field should be Nil")
	}
	if w.Field(0).Int() != 1 {
		t.Fatalf("Field(0) wrong")
	}
}

func TestAllSortedByTimeTag(t *testing.T) {
	tab, _, m := newEnv()
	c := tab.Intern("c")
	var ws []*WME
	for i := 0; i < 20; i++ {
		w := m.Make(c, []value.Value{value.IntVal(int64(i))})
		m.Insert(w)
		ws = append(ws, w)
	}
	m.Delete(ws[3])
	m.Delete(ws[17])
	all := m.All()
	if len(all) != 18 {
		t.Fatalf("All len = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].TimeTag <= all[i-1].TimeTag {
			t.Fatalf("All not sorted at %d", i)
		}
	}
}

func TestFormat(t *testing.T) {
	tab, reg, m := newEnv()
	c := tab.Intern("block")
	reg.Declare(c, tab.Intern("name"), tab.Intern("color"))
	w := m.Make(c, []value.Value{tab.SymV("b1"), tab.SymV("blue")})
	got := w.Format(tab, reg)
	want := "(block ^name b1 ^color blue)"
	if got != want {
		t.Fatalf("Format = %q, want %q", got, want)
	}
}

func TestOpString(t *testing.T) {
	if Add.String() != "add" || Remove.String() != "remove" {
		t.Fatalf("Op.String wrong")
	}
}

// Property: for any multiset of inserted wmes, FindEqual finds a
// contents-equal wme iff at least one copy is live.
func TestFindEqualProperty(t *testing.T) {
	f := func(vals []int8) bool {
		tab, reg, m := newEnv()
		c := tab.Intern("n")
		reg.Declare(c, tab.Intern("v"))
		live := map[int8]int{}
		for _, v := range vals {
			w := m.Make(c, []value.Value{value.IntVal(int64(v))})
			if v%3 == 0 && live[v] > 0 {
				// delete one live copy instead of inserting
				probe := m.Make(c, []value.Value{value.IntVal(int64(v))})
				if got := m.FindEqual(probe); got != nil {
					m.Delete(got)
					live[v]--
				}
				continue
			}
			m.Insert(w)
			live[v]++
		}
		for v, n := range live {
			probe := m.Make(c, []value.Value{value.IntVal(int64(v))})
			found := m.FindEqual(probe) != nil
			if found != (n > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
