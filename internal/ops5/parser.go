package ops5

import (
	"fmt"
	"strconv"

	"soarpsme/internal/value"
)

// parser builds a Program from OPS5 source, interning every name into tab.
type parser struct {
	lex *lexer
	tab *value.Table
	tok token // one-token lookahead
}

// Parse parses a complete OPS5 source file.
func Parse(src string, tab *value.Table) (*Program, error) {
	p := &parser{lex: newLexer(src), tab: tab}
	if err := p.advance(); err != nil {
		return nil, err
	}
	prog := &Program{Strategy: "lex"}
	for p.tok.kind != tokEOF {
		if err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		head, err := p.symText()
		if err != nil {
			return nil, err
		}
		switch head {
		case "literalize":
			lit, err := p.parseLiteralize()
			if err != nil {
				return nil, err
			}
			prog.Literalize = append(prog.Literalize, lit)
		case "strategy":
			s, err := p.symText()
			if err != nil {
				return nil, err
			}
			if s != "lex" && s != "mea" {
				return nil, p.errf("unknown strategy %q", s)
			}
			prog.Strategy = s
			if err := p.expect(tokRParen); err != nil {
				return nil, err
			}
		case "startup":
			for p.tok.kind != tokRParen {
				act, err := p.parseAction()
				if err != nil {
					return nil, err
				}
				prog.Startup = append(prog.Startup, act)
			}
			if err := p.expect(tokRParen); err != nil {
				return nil, err
			}
		case "p":
			prod, err := p.parseProduction()
			if err != nil {
				return nil, err
			}
			prog.Productions = append(prog.Productions, prod)
		default:
			return nil, p.errf("unknown top-level form %q", head)
		}
	}
	return prog, nil
}

// ParseProduction parses a single "(p name ...)" form; used for run-time
// production addition (chunks arrive as individual productions).
func ParseProduction(src string, tab *value.Table) (*Production, error) {
	p := &parser{lex: newLexer(src), tab: tab}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	head, err := p.symText()
	if err != nil {
		return nil, err
	}
	if head != "p" {
		return nil, p.errf("expected (p ...), got (%s ...)", head)
	}
	prod, err := p.parseProduction()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("trailing input after production")
	}
	return prod, nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("ops5: line %d: %s", p.tok.line, fmt.Sprintf(format, args...))
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k tokKind) error {
	if p.tok.kind != k {
		return p.errf("expected %v, got %v %q", k, p.tok.kind, p.tok.text)
	}
	return p.advance()
}

// symText consumes a symbol token and returns its text.
func (p *parser) symText() (string, error) {
	if p.tok.kind != tokSym && p.tok.kind != tokString {
		return "", p.errf("expected symbol, got %v %q", p.tok.kind, p.tok.text)
	}
	s := p.tok.text
	return s, p.advance()
}

func (p *parser) parseLiteralize() (Literalize, error) {
	cls, err := p.symText()
	if err != nil {
		return Literalize{}, err
	}
	lit := Literalize{Class: p.tab.Intern(cls)}
	for p.tok.kind == tokSym {
		lit.Attrs = append(lit.Attrs, p.tab.Intern(p.tok.text))
		if err := p.advance(); err != nil {
			return Literalize{}, err
		}
	}
	return lit, p.expect(tokRParen)
}

// parseProduction parses the body after "(p": name, LHS, -->, RHS, ")".
func (p *parser) parseProduction() (*Production, error) {
	name, err := p.symText()
	if err != nil {
		return nil, err
	}
	prod := &Production{Name: name}
	for p.tok.kind != tokArrow {
		ci, err := p.parseCondItem()
		if err != nil {
			return nil, err
		}
		prod.LHS = append(prod.LHS, ci)
	}
	if err := p.advance(); err != nil { // consume -->
		return nil, err
	}
	for p.tok.kind != tokRParen {
		act, err := p.parseAction()
		if err != nil {
			return nil, err
		}
		prod.RHS = append(prod.RHS, act)
	}
	if err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if len(prod.LHS) == 0 {
		return nil, fmt.Errorf("ops5: production %s has no conditions", name)
	}
	if prod.LHS[0].Kind != CondPos {
		return nil, fmt.Errorf("ops5: production %s: first condition must be positive", name)
	}
	return prod, nil
}

func (p *parser) parseCondItem() (*CondItem, error) {
	switch p.tok.kind {
	case tokLBrace:
		// OPS5 element variable: { <w> (class ...) }.
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokVar {
			return nil, p.errf("expected element variable after { in LHS")
		}
		ev := p.tab.Intern(p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		ce, err := p.parseCE()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRBrace); err != nil {
			return nil, err
		}
		return &CondItem{Kind: CondPos, CE: ce, ElemVar: ev}, nil
	case tokLParen:
		ce, err := p.parseCE()
		if err != nil {
			return nil, err
		}
		return &CondItem{Kind: CondPos, CE: ce}, nil
	case tokMinus:
		if err := p.advance(); err != nil {
			return nil, err
		}
		ce, err := p.parseCE()
		if err != nil {
			return nil, err
		}
		return &CondItem{Kind: CondNeg, CE: ce}, nil
	case tokNegBrace:
		if err := p.advance(); err != nil {
			return nil, err
		}
		var sub []*CE
		for p.tok.kind != tokRBrace {
			ce, err := p.parseCE()
			if err != nil {
				return nil, err
			}
			sub = append(sub, ce)
		}
		if err := p.advance(); err != nil { // consume }
			return nil, err
		}
		if len(sub) == 0 {
			return nil, p.errf("empty conjunctive negation")
		}
		return &CondItem{Kind: CondNCC, Sub: sub}, nil
	}
	return nil, p.errf("expected condition element, got %v %q", p.tok.kind, p.tok.text)
}

// parseCE parses "(class ^attr test... ^attr test...)".
func (p *parser) parseCE() (*CE, error) {
	if err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	cls, err := p.symText()
	if err != nil {
		return nil, err
	}
	ce := &CE{Class: p.tab.Intern(cls)}
	for p.tok.kind == tokCaret {
		attr := p.tab.Intern(p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		tests, err := p.parseAttrTests()
		if err != nil {
			return nil, err
		}
		ce.Tests = append(ce.Tests, AttrTest{Attr: attr, Tests: tests})
	}
	return ce, p.expect(tokRParen)
}

// parseAttrTests parses the test expression following "^attr": either a
// single test or a { ... } conjunction of tests.
func (p *parser) parseAttrTests() ([]Test, error) {
	if p.tok.kind == tokLBrace {
		if err := p.advance(); err != nil {
			return nil, err
		}
		var tests []Test
		for p.tok.kind != tokRBrace {
			t, err := p.parseOneTest()
			if err != nil {
				return nil, err
			}
			tests = append(tests, t)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if len(tests) == 0 {
			return nil, p.errf("empty conjunctive test")
		}
		return tests, nil
	}
	t, err := p.parseOneTest()
	if err != nil {
		return nil, err
	}
	return []Test{t}, nil
}

// parseOneTest parses one (optionally predicate-prefixed) test.
func (p *parser) parseOneTest() (Test, error) {
	pred := value.PredEq
	if p.tok.kind == tokPred {
		pr, ok := value.ParsePred(p.tok.text)
		if !ok {
			return Test{}, p.errf("bad predicate %q", p.tok.text)
		}
		pred = pr
		if err := p.advance(); err != nil {
			return Test{}, err
		}
	}
	switch p.tok.kind {
	case tokVar:
		v := p.tab.Intern(p.tok.text)
		if err := p.advance(); err != nil {
			return Test{}, err
		}
		return Test{Kind: TestVar, Pred: pred, Var: v}, nil
	case tokSym, tokString, tokInt, tokFloat:
		v, err := p.constValue()
		if err != nil {
			return Test{}, err
		}
		return Test{Kind: TestConst, Pred: pred, Val: v}, nil
	case tokLDisj:
		if pred != value.PredEq {
			return Test{}, p.errf("predicate before disjunction is not allowed")
		}
		if err := p.advance(); err != nil {
			return Test{}, err
		}
		var vals []value.Value
		for p.tok.kind != tokRDisj {
			v, err := p.constValue()
			if err != nil {
				return Test{}, err
			}
			vals = append(vals, v)
		}
		if err := p.advance(); err != nil {
			return Test{}, err
		}
		if len(vals) == 0 {
			return Test{}, p.errf("empty disjunction")
		}
		return Test{Kind: TestDisj, Pred: value.PredEq, Disj: vals}, nil
	}
	return Test{}, p.errf("expected test, got %v %q", p.tok.kind, p.tok.text)
}

// constValue consumes a constant token as a Value.
func (p *parser) constValue() (value.Value, error) {
	var v value.Value
	switch p.tok.kind {
	case tokSym, tokString:
		v = p.tab.SymV(p.tok.text)
	case tokInt:
		n, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return value.Nil, p.errf("bad integer %q", p.tok.text)
		}
		v = value.IntVal(n)
	case tokFloat:
		f, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return value.Nil, p.errf("bad float %q", p.tok.text)
		}
		v = value.FloatVal(f)
	default:
		return value.Nil, p.errf("expected constant, got %v %q", p.tok.kind, p.tok.text)
	}
	return v, p.advance()
}

// parseAction parses one RHS action form.
func (p *parser) parseAction() (*Action, error) {
	if err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	head, err := p.symText()
	if err != nil {
		return nil, err
	}
	act := &Action{}
	switch head {
	case "make":
		act.Kind = ActMake
		cls, err := p.symText()
		if err != nil {
			return nil, err
		}
		act.Class = p.tab.Intern(cls)
		if act.Sets, err = p.parseAttrSets(); err != nil {
			return nil, err
		}
	case "remove":
		act.Kind = ActRemove
		switch p.tok.kind {
		case tokInt:
			n, _ := strconv.Atoi(p.tok.text)
			act.CE = n
		case tokVar:
			act.Elem = p.tab.Intern(p.tok.text)
		default:
			return nil, p.errf("remove expects a CE index or element variable")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	case "modify":
		act.Kind = ActModify
		switch p.tok.kind {
		case tokInt:
			n, _ := strconv.Atoi(p.tok.text)
			act.CE = n
		case tokVar:
			act.Elem = p.tab.Intern(p.tok.text)
		default:
			return nil, p.errf("modify expects a CE index or element variable")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if act.Sets, err = p.parseAttrSets(); err != nil {
			return nil, err
		}
	case "write":
		act.Kind = ActWrite
		for p.tok.kind != tokRParen {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			act.Args = append(act.Args, e)
		}
	case "halt":
		act.Kind = ActHalt
	case "excise":
		act.Kind = ActExcise
		name, err := p.symText()
		if err != nil {
			return nil, err
		}
		act.Name = name
	case "bind":
		act.Kind = ActBind
		if p.tok.kind != tokVar {
			return nil, p.errf("bind expects a variable")
		}
		act.Var = p.tab.Intern(p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokRParen {
			act.Expr = &Expr{Kind: ExprGensym}
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			act.Expr = e
		}
	default:
		return nil, p.errf("unknown action %q", head)
	}
	return act, p.expect(tokRParen)
}

func (p *parser) parseAttrSets() ([]AttrSet, error) {
	var sets []AttrSet
	for p.tok.kind == tokCaret {
		attr := p.tab.Intern(p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sets = append(sets, AttrSet{Attr: attr, Expr: e})
	}
	return sets, nil
}

// parseExpr parses an RHS value: constant, variable, or (compute a op b).
func (p *parser) parseExpr() (*Expr, error) {
	switch p.tok.kind {
	case tokVar:
		e := &Expr{Kind: ExprVar, Var: p.tab.Intern(p.tok.text)}
		return e, p.advance()
	case tokSym, tokString, tokInt, tokFloat:
		v, err := p.constValue()
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: ExprConst, Val: v}, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		head, err := p.symText()
		if err != nil {
			return nil, err
		}
		switch head {
		case "compute":
			l, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			op, err := p.computeOp()
			if err != nil {
				return nil, err
			}
			r, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			e := &Expr{Kind: ExprCompute, Op: op, L: l, R: r}
			return e, p.expect(tokRParen)
		case "gensym":
			e := &Expr{Kind: ExprGensym}
			return e, p.expect(tokRParen)
		}
		return nil, p.errf("unknown expression form %q", head)
	case tokPred:
		// "(compute <x> - 1)" lexes '-' as tokMinus; '+'-like symbols come
		// through symText in computeOp, so a bare predicate here is an error.
		return nil, p.errf("unexpected predicate %q in expression", p.tok.text)
	}
	return nil, p.errf("expected expression, got %v %q", p.tok.kind, p.tok.text)
}

// computeOp consumes the operator of a compute form.
func (p *parser) computeOp() (byte, error) {
	switch p.tok.kind {
	case tokMinus:
		return '-', p.advance()
	case tokSym:
		t := p.tok.text
		if len(t) == 1 {
			switch t[0] {
			case '+', '*', '%':
				return t[0], p.advance()
			}
		}
		if t == "//" {
			return '/', p.advance()
		}
		if t == "\\\\" || t == "mod" {
			return '%', p.advance()
		}
	}
	return 0, p.errf("bad compute operator %q", p.tok.text)
}
