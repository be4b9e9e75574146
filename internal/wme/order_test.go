package wme

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"soarpsme/internal/value"
)

// byTagThenID orders wmes by time tag, ties (possible only with tags
// re-issued through SetCounters) by ID.
func byTagThenID(a, b *WME) int {
	if c := cmp.Compare(a.TimeTag, b.TimeTag); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// orderModel is the reference: a map of the live wmes, walked and sorted
// by time tag — what All computed before it kept the order itself.
type orderModel map[uint64]*WME

func (r orderModel) all() []*WME {
	out := make([]*WME, 0, len(r))
	for _, w := range r {
		out = append(out, w)
	}
	slices.SortFunc(out, byTagThenID)
	return out
}

// checkShape verifies Len, Get and the structural invariants without
// calling All (which compacts).
func checkShape(t *testing.T, step int, m *Memory, ref orderModel, dead []*WME) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("step %d: Len = %d, want %d", step, m.Len(), len(ref))
	}
	for id, w := range ref {
		if m.Get(id) != w {
			t.Fatalf("step %d: Get(%d) lost its wme", step, id)
		}
	}
	for _, w := range dead {
		if _, live := ref[w.ID]; !live && m.Get(w.ID) != nil {
			t.Fatalf("step %d: Get(%d) returns a deleted wme", step, w.ID)
		}
	}
	if len(m.order) > 2*m.Len()+compactSlack {
		t.Fatalf("step %d: order holds %d entries for %d live", step, len(m.order), m.Len())
	}
	holes := 0
	for i, w := range m.order {
		if w == nil {
			holes++
			continue
		}
		if ref[w.ID] != w || m.pos[w.ID] != i {
			t.Fatalf("step %d: order[%d] = wme %d is not live at its index", step, i, w.ID)
		}
	}
	if holes != m.holes {
		t.Fatalf("step %d: %d holes counted, %d recorded", step, holes, m.holes)
	}
}

func checkAll(t *testing.T, step int, m *Memory, ref orderModel) {
	t.Helper()
	got := m.All()
	for i := 1; i < len(got); i++ {
		if got[i].TimeTag < got[i-1].TimeTag {
			t.Fatalf("step %d: All not in time-tag order at %d", step, i)
		}
	}
	// Equal tags (SetCounters re-issuing a tag) have no defined order
	// between them, in the reference or here.
	got = slices.Clone(got)
	slices.SortStableFunc(got, byTagThenID)
	want := ref.all()
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: All has %d wmes, reference %d, or a different sequence", step, len(got), len(want))
	}
}

// TestMemoryOrderProperty drives random streams of inserts, deletes,
// re-inserts of the same *WME and out-of-order tags (SetCounters moving the
// tag counter back, EnsureCounters under pre-assigned identities, as a
// replay does) and requires All to equal the map-walk-and-sort reference.
// Half the streams call All after every step; the other half only every
// 64 steps, so Delete's own compaction runs with unsorted entries and holes
// and is checked structurally in between.
func TestMemoryOrderProperty(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		everyStep := seed%2 == 0
		m := NewMemory()
		c := value.Sym(1)
		ref := orderModel{}
		var live, dead []*WME // picking lists, in a seed-determined order
		insert := func(w *WME) {
			if err := m.Insert(w); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			ref[w.ID] = w
			live = append(live, w)
		}
		mk := func() *WME { return m.Make(c, []value.Value{value.IntVal(rng.Int63n(8))}) }
		for step := 0; step < 1000; step++ {
			switch op := rng.Intn(100); {
			case op < 45:
				insert(mk())
			case op < 80:
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				w := live[i]
				live = slices.Delete(live, i, i+1)
				if !m.Delete(w) {
					t.Fatalf("seed %d step %d: Delete of a live wme failed", seed, step)
				}
				delete(ref, w.ID)
				dead = append(dead, w)
			case op < 90:
				if len(dead) == 0 {
					continue
				}
				i := rng.Intn(len(dead))
				w := dead[i]
				dead = slices.Delete(dead, i, i+1)
				insert(w) // the same *WME again, with its old tag
			case op < 95:
				id, tag := m.Counters()
				m.SetCounters(id, uint64(rng.Int63n(int64(tag)+1)))
				insert(mk())
				m.SetCounters(id+1, tag)
			default:
				id, tag := m.Counters()
				w := &WME{ID: id + 1 + uint64(rng.Intn(3)), TimeTag: uint64(rng.Int63n(int64(tag) + 5)), Class: c}
				m.EnsureCounters(w.ID, w.TimeTag)
				insert(w)
			}
			if m.Delete(&WME{ID: 1 << 62}) {
				t.Fatalf("seed %d: Delete of an unknown wme succeeded", seed)
			}
			checkShape(t, step, m, ref, dead)
			if everyStep || step%64 == 63 {
				checkAll(t, step, m, ref)
			}
		}
		checkAll(t, -1, m, ref)
	}
}

// TestMemoryOrderBounded: a long stream with about 100 wmes live and no
// All call ever — a served session's shape — keeps order within
// 2·live + compactSlack entries, and a memory that shrank gives its
// backing array back.
func TestMemoryOrderBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMemory()
	var live []*WME
	for i := 0; i < 100_000; i++ {
		if len(live) < 100 || (len(live) < 110 && rng.Intn(2) == 0) {
			w := m.Make(1, nil)
			m.Insert(w)
			live = append(live, w)
		} else {
			j := rng.Intn(len(live))
			m.Delete(live[j])
			live = slices.Delete(live, j, j+1)
		}
		if len(m.order) > 2*m.Len()+compactSlack {
			t.Fatalf("op %d: order holds %d entries for %d live", i, len(m.order), m.Len())
		}
	}
	for i := 0; i < 10_000; i++ {
		w := m.Make(1, nil)
		m.Insert(w)
		live = append(live, w)
	}
	for _, w := range live[10:] {
		m.Delete(w)
	}
	if m.Len() != 10 || cap(m.order) > 8*(m.Len()+compactSlack) {
		t.Fatalf("shrunk to %d live, order keeps cap %d", m.Len(), cap(m.order))
	}
}
