// Package ops5 implements the production-language front end: a lexer and
// parser for OPS5 syntax with the Soar extensions the paper requires
// (conjunctive negations). The output AST is fully interned — classes,
// attributes, constants and variables are value.Syms — so the Rete compiler
// never handles strings.
//
// Supported surface syntax:
//
//	(literalize block name color on state)
//	(strategy lex)                      ; or mea
//	(startup (make block ^name b1))     ; initial working memory
//	(p blue-block-is-graspable
//	  (block ^name <b> ^color blue)
//	  -(block ^on <b>)
//	  -{ (foo ^id <b>) (bar ^of <b>) } ; Soar conjunctive negation
//	  (hand ^state { <> busy <h> })
//	  -->
//	  (modify 1 ^state graspable)
//	  (make goal ^object <b> ^hand <h>)
//	  (remove 3)
//	  (write |graspable:| <b>)
//	  (halt))
//
// Attribute tests: constants, variables <x>, predicate tests (<> v, > 3,
// >= <x>, <=> <x>), disjunctions << a b c >>, and conjunctive test groups
// { ... } whose members must all hold.
package ops5

import (
	"fmt"

	"soarpsme/internal/value"
)

// Program is a parsed OPS5 source file.
type Program struct {
	Literalize  []Literalize
	Productions []*Production
	Startup     []*Action // actions run once before the first cycle
	Strategy    string    // "lex" (default) or "mea"
}

// Literalize declares the attribute layout of a wme class.
type Literalize struct {
	Class value.Sym
	Attrs []value.Sym
}

// Production is one condition-action rule.
type Production struct {
	Name string
	LHS  []*CondItem
	RHS  []*Action
}

// CondKind discriminates LHS items.
type CondKind uint8

// CondPos is a positive CE, CondNeg a negated CE, CondNCC a Soar
// conjunctive negation (absence of a consistent set of wmes).
const (
	CondPos CondKind = iota
	CondNeg
	CondNCC
)

func (k CondKind) String() string {
	switch k {
	case CondPos:
		return "+"
	case CondNeg:
		return "-"
	case CondNCC:
		return "-{}"
	}
	return "?"
}

// CondItem is one LHS element: a positive CE, a negated CE, or a
// conjunctive negation over a sub-sequence of CEs. ElemVar, when nonzero,
// names the OPS5 element variable bound to the matching wme
// ("{ <w> (class ...) }"), usable in remove/modify.
type CondItem struct {
	Kind    CondKind
	CE      *CE   // CondPos, CondNeg
	Sub     []*CE // CondNCC
	ElemVar value.Sym
}

// CE is a condition element: a class pattern over attribute tests.
type CE struct {
	Class value.Sym
	Tests []AttrTest
}

// AttrTest is the conjunction of tests applied to one attribute.
type AttrTest struct {
	Attr  value.Sym
	Tests []Test
}

// TestKind discriminates a single attribute test.
type TestKind uint8

// TestConst compares against a constant; TestVar against a variable binding;
// TestDisj checks membership in a constant disjunction (<< ... >>).
const (
	TestConst TestKind = iota
	TestVar
	TestDisj
)

// Test is one predicate applied to an attribute value.
type Test struct {
	Kind TestKind
	Pred value.Pred
	Val  value.Value   // TestConst
	Var  value.Sym     // TestVar: variable name (interned without <>)
	Disj []value.Value // TestDisj
}

// ActionKind discriminates RHS actions.
type ActionKind uint8

// The RHS action kinds.
const (
	ActMake ActionKind = iota
	ActRemove
	ActModify
	ActWrite
	ActHalt
	ActBind
	ActExcise
)

func (k ActionKind) String() string {
	switch k {
	case ActMake:
		return "make"
	case ActRemove:
		return "remove"
	case ActModify:
		return "modify"
	case ActWrite:
		return "write"
	case ActHalt:
		return "halt"
	case ActBind:
		return "bind"
	case ActExcise:
		return "excise"
	}
	return "?"
}

// Action is one RHS action.
type Action struct {
	Kind  ActionKind
	Class value.Sym // make
	CE    int       // remove/modify: 1-based position, or 0 with ElemVar
	Elem  value.Sym // remove/modify: element variable (alternative to CE)
	Var   value.Sym // bind target
	Expr  *Expr     // bind source
	Sets  []AttrSet // make/modify attribute assignments
	Args  []*Expr   // write arguments
	Name  string    // excise: production name
}

// AttrSet assigns one attribute in a make/modify.
type AttrSet struct {
	Attr value.Sym
	Expr *Expr
}

// ExprKind discriminates RHS value expressions.
type ExprKind uint8

// ExprConst is a literal, ExprVar a variable reference, ExprCompute an
// arithmetic expression (compute a op b), ExprGensym a fresh symbol.
const (
	ExprConst ExprKind = iota
	ExprVar
	ExprCompute
	ExprGensym
)

// Expr is an RHS value expression.
type Expr struct {
	Kind ExprKind
	Val  value.Value
	Var  value.Sym
	Op   byte // '+', '-', '*', '/' or '%' for ExprCompute
	L, R *Expr
}

// String renders a compact debug form of the production.
func (p *Production) String() string {
	return fmt.Sprintf("(p %s: %d conds, %d actions)", p.Name, len(p.LHS), len(p.RHS))
}
