package ops5

import (
	"strings"
	"testing"

	"soarpsme/internal/value"
)

const blueBlockSrc = `
; the paper's Figure 2-2 production
(literalize block name color on state)
(literalize hand state)
(p blue-block-is-graspable
  (block ^name <b> ^color blue)
  -(block ^on <b>)
  (hand ^state free)
  -->
  (modify 1 ^state graspable))
`

func TestParseBlueBlock(t *testing.T) {
	tab := value.NewTable()
	prog, err := Parse(blueBlockSrc, tab)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Literalize) != 2 {
		t.Fatalf("literalize count = %d", len(prog.Literalize))
	}
	if len(prog.Productions) != 1 {
		t.Fatalf("production count = %d", len(prog.Productions))
	}
	p := prog.Productions[0]
	if p.Name != "blue-block-is-graspable" {
		t.Fatalf("name = %q", p.Name)
	}
	if len(p.LHS) != 3 {
		t.Fatalf("LHS len = %d", len(p.LHS))
	}
	if p.LHS[0].Kind != CondPos || p.LHS[1].Kind != CondNeg || p.LHS[2].Kind != CondPos {
		t.Fatalf("cond kinds wrong: %v %v %v", p.LHS[0].Kind, p.LHS[1].Kind, p.LHS[2].Kind)
	}
	ce0 := p.LHS[0].CE
	if tab.Name(ce0.Class) != "block" {
		t.Fatalf("class = %q", tab.Name(ce0.Class))
	}
	if len(ce0.Tests) != 2 {
		t.Fatalf("tests = %d", len(ce0.Tests))
	}
	if v := ce0.Tests[0].Tests[0]; v.Kind != TestVar || tab.Name(v.Var) != "b" {
		t.Fatalf("^name test should be the variable <b>")
	}
	if v := p.LHS[1].CE.Tests[0].Tests[0]; v.Kind != TestVar || v.Var != ce0.Tests[0].Tests[0].Var {
		t.Fatalf("negated ^on test should reuse <b>")
	}
	if ce0.Tests[1].Tests[0].Kind != TestConst || tab.Format(ce0.Tests[1].Tests[0].Val) != "blue" {
		t.Fatalf("^color test wrong")
	}
	if len(p.RHS) != 1 || p.RHS[0].Kind != ActModify || p.RHS[0].CE != 1 {
		t.Fatalf("RHS wrong: %+v", p.RHS[0])
	}
}

func TestParsePredicatesAndConjunctive(t *testing.T) {
	tab := value.NewTable()
	src := `(p pr
	  (item ^size { > 3 <= 10 <> 7 } ^kind <> widget ^owner <=> <o>)
	  -->
	  (halt))`
	prog, err := Parse(src, tab)
	if err != nil {
		t.Fatal(err)
	}
	ce := prog.Productions[0].LHS[0].CE
	if len(ce.Tests) != 3 {
		t.Fatalf("attr tests = %d", len(ce.Tests))
	}
	sz := ce.Tests[0]
	if len(sz.Tests) != 3 {
		t.Fatalf("size conj len = %d", len(sz.Tests))
	}
	if sz.Tests[0].Pred != value.PredGt || sz.Tests[1].Pred != value.PredLe || sz.Tests[2].Pred != value.PredNe {
		t.Fatalf("size predicates wrong: %v %v %v", sz.Tests[0].Pred, sz.Tests[1].Pred, sz.Tests[2].Pred)
	}
	if ce.Tests[1].Tests[0].Pred != value.PredNe || ce.Tests[1].Tests[0].Kind != TestConst {
		t.Fatalf("kind test wrong")
	}
	if ce.Tests[2].Tests[0].Pred != value.PredSameType || ce.Tests[2].Tests[0].Kind != TestVar {
		t.Fatalf("owner test wrong")
	}
}

func TestParseDisjunction(t *testing.T) {
	tab := value.NewTable()
	src := `(p pr (light ^color << red yellow green >>) --> (halt))`
	prog, err := Parse(src, tab)
	if err != nil {
		t.Fatal(err)
	}
	tst := prog.Productions[0].LHS[0].CE.Tests[0].Tests[0]
	if tst.Kind != TestDisj || len(tst.Disj) != 3 {
		t.Fatalf("disjunction wrong: %+v", tst)
	}
	if tab.Format(tst.Disj[1]) != "yellow" {
		t.Fatalf("disj member wrong")
	}
}

func TestParseConjunctiveNegation(t *testing.T) {
	tab := value.NewTable()
	src := `(p pr
	  (goal ^state <s>)
	  -{ (door ^in <s> ^status closed) (lock ^door <s>) }
	  -->
	  (halt))`
	prog, err := Parse(src, tab)
	if err != nil {
		t.Fatal(err)
	}
	lhs := prog.Productions[0].LHS
	if len(lhs) != 2 || lhs[1].Kind != CondNCC {
		t.Fatalf("NCC not parsed: %+v", lhs)
	}
	if len(lhs[1].Sub) != 2 {
		t.Fatalf("NCC sub len = %d", len(lhs[1].Sub))
	}
	if tab.Name(lhs[1].Sub[0].Class) != "door" || tab.Name(lhs[1].Sub[1].Class) != "lock" {
		t.Fatalf("NCC classes wrong")
	}
}

func TestParseActions(t *testing.T) {
	tab := value.NewTable()
	src := `(p pr (counter ^n <n>) -->
	  (bind <m> (compute <n> + 1))
	  (bind <g>)
	  (modify 1 ^n <m>)
	  (make log ^entry <m> ^tag <g>)
	  (remove 1)
	  (write |count is| <m>)
	  (halt))`
	prog, err := Parse(src, tab)
	if err != nil {
		t.Fatal(err)
	}
	rhs := prog.Productions[0].RHS
	if len(rhs) != 7 {
		t.Fatalf("RHS len = %d", len(rhs))
	}
	if rhs[0].Kind != ActBind || rhs[0].Expr.Kind != ExprCompute || rhs[0].Expr.Op != '+' {
		t.Fatalf("bind compute wrong: %+v", rhs[0].Expr)
	}
	if rhs[1].Kind != ActBind || rhs[1].Expr.Kind != ExprGensym {
		t.Fatalf("bind gensym wrong")
	}
	if rhs[2].Kind != ActModify || len(rhs[2].Sets) != 1 {
		t.Fatalf("modify wrong")
	}
	if rhs[3].Kind != ActMake || len(rhs[3].Sets) != 2 {
		t.Fatalf("make wrong")
	}
	if rhs[4].Kind != ActRemove || rhs[4].CE != 1 {
		t.Fatalf("remove wrong")
	}
	if rhs[5].Kind != ActWrite || len(rhs[5].Args) != 2 {
		t.Fatalf("write wrong")
	}
	if rhs[6].Kind != ActHalt {
		t.Fatalf("halt wrong")
	}
}

func TestParseComputeMinusAndNumbers(t *testing.T) {
	tab := value.NewTable()
	src := `(p pr (c ^n <n>) --> (bind <m> (compute <n> - -3)) (bind <q> (compute 2.5 * <n>)))`
	prog, err := Parse(src, tab)
	if err != nil {
		t.Fatal(err)
	}
	e := prog.Productions[0].RHS[0].Expr
	if e.Op != '-' || e.R.Val.Int() != -3 {
		t.Fatalf("minus compute wrong: %+v", e)
	}
	e2 := prog.Productions[0].RHS[1].Expr
	if e2.Op != '*' || e2.L.Val.Float() != 2.5 {
		t.Fatalf("float compute wrong")
	}
}

func TestParseStartupAndStrategy(t *testing.T) {
	tab := value.NewTable()
	src := `
	(strategy mea)
	(startup (make start) (make counter ^n 0))
	(p done (counter ^n 10) --> (halt))`
	prog, err := Parse(src, tab)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Strategy != "mea" {
		t.Fatalf("strategy = %q", prog.Strategy)
	}
	if len(prog.Startup) != 2 || prog.Startup[1].Kind != ActMake {
		t.Fatalf("startup wrong")
	}
}

func TestParseSymbolsWithDigitsAndDashes(t *testing.T) {
	tab := value.NewTable()
	src := `(p p1 (object ^name robby-the-robot ^id 8-puzzle ^room room2) --> (halt))`
	prog, err := Parse(src, tab)
	if err != nil {
		t.Fatal(err)
	}
	ce := prog.Productions[0].LHS[0].CE
	if tab.Format(ce.Tests[0].Tests[0].Val) != "robby-the-robot" {
		t.Fatalf("dashed symbol wrong")
	}
	if tab.Format(ce.Tests[1].Tests[0].Val) != "8-puzzle" {
		t.Fatalf("digit-leading symbol wrong: %v", tab.Format(ce.Tests[1].Tests[0].Val))
	}
	if tab.Format(ce.Tests[2].Tests[0].Val) != "room2" {
		t.Fatalf("room2 wrong")
	}
}

func TestParseNegativeNumbersInTests(t *testing.T) {
	tab := value.NewTable()
	src := `(p p1 (pos ^x -3 ^y > -2.5) --> (halt))`
	prog, err := Parse(src, tab)
	if err != nil {
		t.Fatal(err)
	}
	ce := prog.Productions[0].LHS[0].CE
	if ce.Tests[0].Tests[0].Val.Int() != -3 {
		t.Fatalf("-3 wrong")
	}
	if ce.Tests[1].Tests[0].Val.Float() != -2.5 || ce.Tests[1].Tests[0].Pred != value.PredGt {
		t.Fatalf("-2.5 wrong")
	}
}

func TestParseErrors(t *testing.T) {
	tab := value.NewTable()
	cases := []string{
		`(p)`,                                       // missing name/conditions
		`(p x --> (halt))`,                          // no conditions
		`(p x -(c) --> (halt))`,                     // first condition negative
		`(p x (c ^a <<>>) --> (halt))`,              // empty disjunction
		`(p x (c ^a {}) --> (halt))`,                // empty conjunction
		`(p x -{} --> (halt))`,                      // empty NCC
		`(p x (c) --> (frobnicate))`,                // unknown action
		`(p x (c) --> (remove fred))`,               // non-integer remove
		`(zork)`,                                    // unknown top form
		`(p x (c ^ y) --> (halt))`,                  // empty attr
		`(p x (c ^a |unterminated)`,                 // bad string
		`(p x (c ^a > blue) --> (halt)`,             // missing close paren -> eof
		`(strategy bogus)`,                          // bad strategy
		`(p x (c) --> (bind 3))`,                    // bind non-variable
		`(p x (c) --> (make c ^a (compute 1 ? 2)))`, // bad operator
	}
	for i, src := range cases {
		if _, err := Parse(src, tab); err == nil {
			t.Errorf("case %d (%s): expected error", i, src)
		}
	}
}

func TestParseProductionSingle(t *testing.T) {
	tab := value.NewTable()
	p, err := ParseProduction(`(p chunk-1 (a ^x <v>) --> (make b ^y <v>))`, tab)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "chunk-1" {
		t.Fatalf("name = %q", p.Name)
	}
	if _, err := ParseProduction(`(literalize a x)`, tab); err == nil {
		t.Fatalf("ParseProduction accepted non-production")
	}
	if _, err := ParseProduction(`(p a (c) --> (halt)) junk`, tab); err == nil {
		t.Fatalf("ParseProduction accepted trailing input")
	}
}

func TestParseComments(t *testing.T) {
	tab := value.NewTable()
	src := `
	; leading comment
	(p c1 ; inline comment
	  (a ^x 1) ; another
	  --> (halt)) ; trailing`
	prog, err := Parse(src, tab)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Productions) != 1 {
		t.Fatalf("comment handling broke parse")
	}
}

func TestParseLargeGenerated(t *testing.T) {
	// Smoke test: many productions parse without error.
	tab := value.NewTable()
	var b strings.Builder
	for i := 0; i < 50; i++ {
		b.WriteString("(p prod")
		b.WriteByte(byte('0' + i%10))
		b.WriteString("x")
		b.WriteByte(byte('a' + i/10))
		b.WriteString(" (cls ^a <v> ^b ")
		b.WriteByte(byte('0' + i%10))
		b.WriteString(") -(cls ^c <v>) --> (make out ^v <v>))\n")
	}
	prog, err := Parse(b.String(), tab)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Productions) != 50 {
		t.Fatalf("got %d productions", len(prog.Productions))
	}
}

func TestCondKindActionKindStrings(t *testing.T) {
	if CondPos.String() != "+" || CondNeg.String() != "-" || CondNCC.String() != "-{}" {
		t.Fatalf("CondKind strings wrong")
	}
	for _, k := range []ActionKind{ActMake, ActRemove, ActModify, ActWrite, ActHalt, ActBind} {
		if k.String() == "?" {
			t.Fatalf("ActionKind %d has no name", k)
		}
	}
}

func TestProductionString(t *testing.T) {
	tab := value.NewTable()
	p, err := ParseProduction(`(p z (a ^x 1) --> (halt))`, tab)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.String(), "z") {
		t.Fatalf("String = %q", p.String())
	}
}

func TestParseElementVariables(t *testing.T) {
	tab := value.NewTable()
	src := `(p ev
  { <w> (slot ^name a) }
  (other ^x 1)
  -->
  (modify <w> ^name b)
  (remove <w>))`
	prog, err := Parse(src, tab)
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Productions[0]
	if p.LHS[0].ElemVar == 0 || tab.Name(p.LHS[0].ElemVar) != "w" {
		t.Fatalf("element variable not parsed")
	}
	if p.LHS[1].ElemVar != 0 {
		t.Fatalf("spurious element variable")
	}
	if p.RHS[0].Elem == 0 || p.RHS[1].Elem == 0 {
		t.Fatalf("actions missing element refs")
	}
	// Round trip through the printer.
	out := Format(p, tab)
	if !strings.Contains(out, "{ <w> (slot") || !strings.Contains(out, "(remove <w>)") {
		t.Fatalf("printer lost element variables:\n%s", out)
	}
	if _, err := ParseProduction(out, tab); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

func TestParseElementVariableErrors(t *testing.T) {
	tab := value.NewTable()
	for _, src := range []string{
		`(p x { (c ^v 1) } --> (halt))`, // missing variable
		`(p x { <w> (c) --> (halt))`,    // missing close brace
		`(p x (c) --> (remove))`,        // remove with nothing
	} {
		if _, err := Parse(src, tab); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseExciseAction(t *testing.T) {
	tab := value.NewTable()
	prog, err := Parse(`(p x (c ^v 1) --> (excise other-rule))`, tab)
	if err != nil {
		t.Fatal(err)
	}
	a := prog.Productions[0].RHS[0]
	if a.Kind != ActExcise || a.Name != "other-rule" {
		t.Fatalf("excise parse wrong: %+v", a)
	}
	out := Format(prog.Productions[0], tab)
	if !strings.Contains(out, "(excise other-rule)") {
		t.Fatalf("excise printer wrong:\n%s", out)
	}
}

func TestTokenKindStrings(t *testing.T) {
	for k := tokEOF; k <= tokString; k++ {
		if k.String() == "" {
			t.Fatalf("token kind %d has empty name", k)
		}
	}
}
