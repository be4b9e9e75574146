// Package value provides the primitive value model shared by the whole
// system: interned symbols, typed constants (symbol, integer, float) and the
// OPS5 predicate tests that compare them.
//
// Values are small (two words) and comparable with ==, which lets working
// memory elements, Rete tokens and hash-table keys embed them directly.
package value

import (
	"fmt"
	"strconv"
	"sync"
)

// Sym is an interned symbol identifier. Symbols are interned by a Table;
// two symbols from the same Table are equal iff their Sym values are equal.
// The zero Sym is never produced by interning and acts as "no symbol".
type Sym uint32

// NilSym is the invalid/absent symbol.
const NilSym Sym = 0

// Kind discriminates the runtime type of a Value.
type Kind uint8

// The value kinds. KindNil is the zero Value: absent / unbound.
const (
	KindNil Kind = iota
	KindSym
	KindInt
	KindFloat
)

func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindSym:
		return "sym"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a typed constant. The zero Value is "nil": no value.
//
// Exactly one of Sym / bits is meaningful, selected by Kind. Values are
// comparable with == because float payloads are stored as IEEE-754 bits.
type Value struct {
	Kind Kind
	Sym  Sym    // valid when Kind == KindSym
	bits uint64 // int64 or float64 bits otherwise
}

// Nil is the absent value.
var Nil = Value{}

// SymVal wraps an interned symbol as a Value.
func SymVal(s Sym) Value { return Value{Kind: KindSym, Sym: s} }

// IntVal wraps an integer as a Value.
func IntVal(i int64) Value { return Value{Kind: KindInt, bits: uint64(i)} }

// FloatVal wraps a float as a Value.
func FloatVal(f float64) Value {
	return Value{Kind: KindFloat, bits: floatBits(f)}
}

// Int returns the integer payload; only meaningful when Kind == KindInt.
func (v Value) Int() int64 { return int64(v.bits) }

// Float returns the float payload; only meaningful when Kind == KindFloat.
func (v Value) Float() float64 { return floatFromBits(v.bits) }

// IsNil reports whether v is the absent value.
func (v Value) IsNil() bool { return v.Kind == KindNil }

// Numeric reports whether v is an int or a float.
func (v Value) Numeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }

// AsFloat converts a numeric value to float64 (0 for non-numerics).
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(v.Int())
	case KindFloat:
		return v.Float()
	}
	return 0
}

// Hash returns a well-mixed 64-bit hash of the value, suitable for the Rete
// token hash tables. Numerically equal int/float values hash differently;
// the matcher compares ints and floats by numeric value only through
// predicate tests, never through hashing, so this is safe.
func (v Value) Hash() uint64 {
	var h uint64
	switch v.Kind {
	case KindNil:
		return 0x9e3779b97f4a7c15
	case KindSym:
		h = uint64(v.Sym) | 1<<40
	case KindInt:
		h = v.bits ^ 2<<40
	case KindFloat:
		h = v.bits ^ 3<<40
	}
	// SplitMix64 finalizer: cheap and statistically strong.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Equal reports OPS5 equality: identical symbols, or numerically equal
// numbers (3 = 3.0 holds in OPS5).
func (v Value) Equal(o Value) bool {
	if v.Kind == o.Kind {
		return v == o
	}
	if v.Numeric() && o.Numeric() {
		return v.AsFloat() == o.AsFloat()
	}
	return false
}

// compare returns -1, 0, +1 for numeric ordering. ok is false when either
// operand is not numeric (OPS5 relational predicates fail on non-numbers;
// symbols are compared for identity only).
func (v Value) compare(o Value) (cmp int, ok bool) {
	if !v.Numeric() || !o.Numeric() {
		return 0, false
	}
	if v.Kind == KindInt && o.Kind == KindInt {
		a, b := v.Int(), o.Int()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		}
		return 0, true
	}
	a, b := v.AsFloat(), o.AsFloat()
	switch {
	case a < b:
		return -1, true
	case a > b:
		return 1, true
	}
	return 0, true
}

// String renders the value using the table-less fallback form; use
// Table.Format for symbol names.
func (v Value) String() string { return string(v.AppendTo(nil)) }

// AppendTo appends String's rendering of v to b. Key builders (alpha
// sharing keys, chunk signatures) render through it into one buffer.
func (v Value) AppendTo(b []byte) []byte {
	switch v.Kind {
	case KindNil:
		return append(b, "nil"...)
	case KindSym:
		return strconv.AppendUint(append(b, "sym#"...), uint64(v.Sym), 10)
	case KindInt:
		return strconv.AppendInt(b, v.Int(), 10)
	case KindFloat:
		return strconv.AppendFloat(b, v.Float(), 'g', -1, 64)
	}
	return append(b, '?')
}

// Table interns symbol names. It is safe for concurrent use; interning is
// write-locked, lookups of existing symbols take only a read lock.
type Table struct {
	mu    sync.RWMutex
	names []string       // index = Sym; names[0] unused
	ids   map[string]Sym // name -> Sym
}

// NewTable returns an empty symbol table.
func NewTable() *Table {
	return &Table{names: make([]string, 1, 256), ids: make(map[string]Sym, 256)}
}

// Intern returns the symbol for name, creating it if necessary.
func (t *Table) Intern(name string) Sym {
	t.mu.RLock()
	s, ok := t.ids[name]
	t.mu.RUnlock()
	if ok {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.ids[name]; ok {
		return s
	}
	s = Sym(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = s
	return s
}

// Lookup returns the symbol for name if it was interned.
func (t *Table) Lookup(name string) (Sym, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s, ok := t.ids[name]
	return s, ok
}

// Name returns the string form of s ("" for NilSym or unknown symbols).
func (t *Table) Name(s Sym) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(s) < len(t.names) {
		return t.names[s]
	}
	return ""
}

// SymV interns name and returns it wrapped as a Value.
func (t *Table) SymV(name string) Value { return SymVal(t.Intern(name)) }

// Format renders v with symbol names resolved through the table.
func (t *Table) Format(v Value) string {
	if v.Kind == KindSym {
		if n := t.Name(v.Sym); n != "" {
			return n
		}
	}
	return v.String()
}
