package value

import (
	"fmt"
	"math"
)

// Pred is an OPS5 attribute-test predicate.
type Pred uint8

// The OPS5 predicates. PredEq is the default (written as a bare constant or
// variable in a condition element); PredSameType is OPS5's "<=>".
const (
	PredEq       Pred = iota // =
	PredNe                   // <>
	PredLt                   // <
	PredLe                   // <=
	PredGt                   // >
	PredGe                   // >=
	PredSameType             // <=>
)

func (p Pred) String() string {
	switch p {
	case PredEq:
		return "="
	case PredNe:
		return "<>"
	case PredLt:
		return "<"
	case PredLe:
		return "<="
	case PredGt:
		return ">"
	case PredGe:
		return ">="
	case PredSameType:
		return "<=>"
	}
	return fmt.Sprintf("Pred(%d)", uint8(p))
}

// Apply evaluates "a p b" with OPS5 semantics: equality/inequality are
// defined for all values; relational predicates hold only between numbers;
// <=> holds when both operands have the same type class (number vs symbol).
func (p Pred) Apply(a, b Value) bool {
	switch p {
	case PredEq:
		return a.Equal(b)
	case PredNe:
		return !a.Equal(b)
	case PredSameType:
		return a.Numeric() == b.Numeric() && a.Kind != KindNil && b.Kind != KindNil
	}
	cmp, ok := a.compare(b)
	if !ok {
		return false
	}
	switch p {
	case PredLt:
		return cmp < 0
	case PredLe:
		return cmp <= 0
	case PredGt:
		return cmp > 0
	case PredGe:
		return cmp >= 0
	}
	return false
}

// ParsePred recognizes the textual form of a predicate.
func ParsePred(s string) (Pred, bool) {
	switch s {
	case "=":
		return PredEq, true
	case "<>":
		return PredNe, true
	case "<":
		return PredLt, true
	case "<=":
		return PredLe, true
	case ">":
		return PredGt, true
	case ">=":
		return PredGe, true
	case "<=>":
		return PredSameType, true
	}
	return PredEq, false
}

func floatBits(f float64) uint64 {
	// Normalize NaNs and -0 so Value remains ==-comparable in maps.
	if f != f {
		return 0x7ff8000000000001
	}
	if f == 0 {
		f = 0
	}
	return math.Float64bits(f)
}

func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
