// Package wme models OPS5 working memory: class schemas ("literalize"
// declarations), working-memory elements (wmes) with recency time tags, and
// the working memory itself.
//
// A wme is a record: a class plus a fixed vector of attribute values. The
// attribute order for each class is fixed by its Schema, so condition
// elements compile to field indices once and the matcher never touches
// attribute names at run time (mirroring PSM-E's compiled representation).
package wme

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"soarpsme/internal/value"
)

// Schema fixes the attribute layout of one wme class.
type Schema struct {
	attrs []value.Sym
	index map[value.Sym]int
}

// Attrs returns the ordered attribute list.
func (s *Schema) Attrs() []value.Sym { return s.attrs }

// attrIndex returns the field index for attr, adding the attribute to the
// schema when extend is true and it is not yet present. Added attributes
// keep existing indices stable, so compiled networks remain valid.
func (s *Schema) attrIndex(attr value.Sym, extend bool) (int, bool) {
	if i, ok := s.index[attr]; ok {
		return i, true
	}
	if !extend {
		return -1, false
	}
	i := len(s.attrs)
	s.attrs = append(s.attrs, attr)
	s.index[attr] = i
	return i, true
}

// Width returns the number of declared attributes.
func (s *Schema) Width() int { return len(s.attrs) }

// Registry holds the schemas of every wme class. Like value.Table it has
// one owner and no lock: a network's registry is extended only by the
// goroutine driving that network, and a frozen topology's, which its stamps
// clone, by nobody.
type Registry struct {
	classes map[value.Sym]*Schema
}

// NewRegistry returns an empty schema registry.
func NewRegistry() *Registry {
	return &Registry{classes: make(map[value.Sym]*Schema)}
}

// Clone returns a registry holding r's schemas with the same field indices,
// which extends independently of r from then on.
func (r *Registry) Clone() *Registry {
	c := &Registry{classes: make(map[value.Sym]*Schema, len(r.classes))}
	for cls, s := range r.classes {
		c.classes[cls] = &Schema{attrs: slices.Clone(s.attrs), index: maps.Clone(s.index)}
	}
	return c
}

// Declare registers (or extends) a class with the given attributes,
// mirroring OPS5's literalize. It returns the class schema.
func (r *Registry) Declare(class value.Sym, attrs ...value.Sym) *Schema {
	s := r.Get(class, true)
	for _, a := range attrs {
		s.attrIndex(a, true)
	}
	return s
}

// Get returns the schema for class, creating an empty one when extend is
// true (Soar classes need no literalize; attributes appear on first use).
func (r *Registry) Get(class value.Sym, extend bool) *Schema {
	s := r.classes[class]
	if s == nil && extend {
		s = &Schema{index: make(map[value.Sym]int)}
		r.classes[class] = s
	}
	return s
}

// FieldIndex resolves (class, attr) to a field index, extending the schema
// when extend is true.
func (r *Registry) FieldIndex(class, attr value.Sym, extend bool) (int, bool) {
	s := r.Get(class, extend)
	if s == nil {
		return -1, false
	}
	return s.attrIndex(attr, extend)
}

// Classes returns all declared class symbols in ascending Sym order.
func (r *Registry) Classes() []value.Sym {
	out := make([]value.Sym, 0, len(r.classes))
	for c := range r.classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WME is a working-memory element. Fields is indexed by the class schema;
// missing trailing attributes read as value.Nil.
type WME struct {
	ID      uint64 // unique identity, never reused
	TimeTag uint64 // recency (OPS5 conflict resolution)
	Class   value.Sym
	Fields  []value.Value
}

// Field returns the value at index i (Nil when out of range).
func (w *WME) Field(i int) value.Value {
	if i < 0 || i >= len(w.Fields) {
		return value.Nil
	}
	return w.Fields[i]
}

// EqualContents reports whether two wmes have the same class and fields
// (ignoring identity and time tag). Used for Soar set semantics.
func (w *WME) EqualContents(o *WME) bool {
	if w.Class != o.Class {
		return false
	}
	n := len(w.Fields)
	if len(o.Fields) > n {
		n = len(o.Fields)
	}
	for i := 0; i < n; i++ {
		if !w.Field(i).Equal(o.Field(i)) {
			return false
		}
	}
	return true
}

// contentsKey returns a hash of class+fields for duplicate detection.
func (w *WME) contentsKey() uint64 {
	h := value.SymVal(w.Class).Hash()
	for i, f := range w.Fields {
		if f.IsNil() {
			continue
		}
		h ^= f.Hash() * (uint64(i)*2 + 3)
	}
	return h
}

// Format renders the wme in OPS5 form using the symbol table and schema.
func (w *WME) Format(tab *value.Table, reg *Registry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%s", tab.Name(w.Class))
	if s := reg.Get(w.Class, false); s != nil {
		for i, a := range s.Attrs() {
			v := w.Field(i)
			if v.IsNil() {
				continue
			}
			fmt.Fprintf(&b, " ^%s %s", tab.Name(a), tab.Format(v))
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Memory is the working memory: the set of live wmes. All mutation goes
// through Insert/Delete so time tags stay monotone. Memory is not itself
// locked — the engine serializes WM changes (match starts only after all
// wme changes of a cycle complete, per the paper §6).
//
// The live wmes are kept in time-tag order as they are inserted, so All
// neither walks a map nor sorts; it compacts, so for concurrency it counts
// as a change, not a read. Invariants: order holds every live wme
// exactly once, at order[pos[w.ID]], plus nil holes where wmes were
// deleted since the last compaction; holes <= Len() + compactSlack after
// every operation, so order never holds more than 2·Len() + compactSlack
// entries and a removed wme is never retained. If unsorted is false,
// order's non-nil entries ascend by TimeTag.
type Memory struct {
	nextID  uint64
	nextTag uint64
	order   []*WME
	pos     map[uint64]int // live wme ID -> index in order
	holes   int            // nil entries in order
	lastTag uint64         // TimeTag of the newest entry appended in order
	// unsorted is set by an insert whose tag is older than lastTag (a
	// restore, or a replay with pre-assigned tags); the next compaction
	// re-sorts once.
	unsorted bool
	// byKey indexes wmes by contents hash for Soar set semantics.
	byKey map[uint64][]*WME
}

// compactSlack is the number of holes order may carry beyond one per live
// wme before Delete compacts it: a memory of a handful of wmes with a
// steady stream of changes does not compact on every other delete.
const compactSlack = 32

// NewMemory returns an empty working memory.
func NewMemory() *Memory {
	return &Memory{pos: make(map[uint64]int), byKey: make(map[uint64][]*WME)}
}

// Make builds a new wme (assigning ID and time tag) without inserting it.
func (m *Memory) Make(class value.Sym, fields []value.Value) *WME {
	m.nextID++
	m.nextTag++
	return &WME{ID: m.nextID, TimeTag: m.nextTag, Class: class, Fields: fields}
}

// Counters returns the ID and time-tag allocation state (the last values
// assigned by Make). Snapshots persist them so a restored memory keeps
// allocating fresh identities.
func (m *Memory) Counters() (nextID, nextTag uint64) { return m.nextID, m.nextTag }

// SetCounters sets the allocation state; a restore must pass values at
// least as large as every live wme's ID and time tag or Make would reuse
// an identity.
func (m *Memory) SetCounters(nextID, nextTag uint64) {
	m.nextID = nextID
	m.nextTag = nextTag
}

// Insert adds w to working memory. A duplicate insert (same wme already
// present) is rejected with an error and leaves memory unchanged; the
// engine treats it as a failed cycle and recovers rather than crashing.
func (m *Memory) Insert(w *WME) error {
	if _, dup := m.pos[w.ID]; dup {
		return fmt.Errorf("wme: duplicate insert of wme %d", w.ID)
	}
	if w.TimeTag < m.lastTag {
		m.unsorted = true
	} else {
		m.lastTag = w.TimeTag
	}
	m.pos[w.ID] = len(m.order)
	m.order = append(m.order, w)
	k := w.contentsKey()
	m.byKey[k] = append(m.byKey[k], w)
	return nil
}

// Delete removes w from working memory; it reports whether w was present.
func (m *Memory) Delete(w *WME) bool {
	i, ok := m.pos[w.ID]
	if !ok {
		return false
	}
	delete(m.pos, w.ID)
	m.order[i] = nil
	if m.holes++; m.holes > len(m.pos)+compactSlack {
		m.compact()
	}
	k := w.contentsKey()
	list := m.byKey[k]
	for j, x := range list {
		if x == w {
			list[j] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(m.byKey, k)
	} else {
		m.byKey[k] = list
	}
	return true
}

// FindEqual returns a live wme with identical contents, if any. Soar uses
// this for set semantics: productions only add wmes, and an add of an
// already-present wme is a no-op (with support counting done by the caller).
func (m *Memory) FindEqual(w *WME) *WME {
	for _, x := range m.byKey[w.contentsKey()] {
		if x.EqualContents(w) {
			return x
		}
	}
	return nil
}

// Get returns the wme with the given ID.
func (m *Memory) Get(id uint64) *WME {
	if i, ok := m.pos[id]; ok {
		return m.order[i]
	}
	return nil
}

// Len returns the number of live wmes.
func (m *Memory) Len() int { return len(m.pos) }

// All returns the live wmes sorted by time tag (deterministic order; the
// run-time update algorithm replays these through the network). The slice
// is the caller's.
func (m *Memory) All() []*WME {
	if m.holes > 0 || m.unsorted {
		m.compact()
	}
	return append(make([]*WME, 0, len(m.order)), m.order...)
}

// compact drops order's holes, re-sorts it if an out-of-order insert
// marked it, and re-indexes what moved. An order whose capacity is more
// than four times what it now needs is reallocated, so a memory that
// shrank does not keep its peak.
func (m *Memory) compact() {
	n := len(m.pos)
	out := m.order[:0]
	if cap(m.order) > 4*(n+compactSlack) {
		out = make([]*WME, 0, 2*(n+compactSlack))
	}
	for _, w := range m.order {
		if w != nil {
			out = append(out, w)
		}
	}
	clear(m.order[len(out):])
	if m.unsorted {
		slices.SortStableFunc(out, func(a, b *WME) int { return cmp.Compare(a.TimeTag, b.TimeTag) })
		m.unsorted = false
	}
	for i, w := range out {
		m.pos[w.ID] = i
	}
	m.order, m.holes, m.lastTag = out, 0, 0
	if len(out) > 0 {
		m.lastTag = out[len(out)-1].TimeTag
	}
}

// Op is the direction of a working-memory change.
type Op uint8

// Add inserts a wme; Remove deletes one.
const (
	Add Op = iota
	Remove
)

func (o Op) String() string {
	if o == Add {
		return "add"
	}
	return "remove"
}

// Delta is one working-memory change, the unit handed to the matcher.
type Delta struct {
	Op  Op
	WME *WME
}
