package ops5

import (
	"fmt"
	"strings"

	"soarpsme/internal/value"
)

// Format renders a production AST back to source text. The output
// round-trips through Parse.
func Format(p *Production, tab *value.Table) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "(p %s\n", quoteSym(p.Name))
	for _, ci := range p.LHS {
		switch ci.Kind {
		case CondPos:
			if ci.ElemVar != 0 {
				fmt.Fprintf(&sb, "  { <%s> %s }\n", tab.Name(ci.ElemVar), formatCE(ci.CE, tab))
				continue
			}
			fmt.Fprintf(&sb, "  %s\n", formatCE(ci.CE, tab))
		case CondNeg:
			fmt.Fprintf(&sb, "  -%s\n", formatCE(ci.CE, tab))
		case CondNCC:
			sb.WriteString("  -{")
			for i, ce := range ci.Sub {
				if i > 0 {
					sb.WriteString("\n    ")
				} else {
					sb.WriteString(" ")
				}
				sb.WriteString(formatCE(ce, tab))
			}
			sb.WriteString(" }\n")
		}
	}
	sb.WriteString("  -->\n")
	for _, a := range p.RHS {
		fmt.Fprintf(&sb, "  %s\n", formatAction(a, tab))
	}
	// Close the production: replace the final newline with ")".
	s := sb.String()
	return s[:len(s)-1] + ")\n"
}

// quoteSym renders a symbol name so it re-lexes as the same symbol: bare
// when possible, |bar-quoted| otherwise (symbols interned from | strings
// can hold delimiters, whitespace, predicates, or number-shaped text).
func quoteSym(name string) string {
	lx := newLexer(name)
	if t, err := lx.next(); err == nil && t.kind == tokSym && t.text == name && lx.pos == len(name) {
		return name
	}
	return "|" + name + "|"
}

// formatVal is tab.Format with symbol quoting.
func formatVal(v value.Value, tab *value.Table) string {
	if v.Kind == value.KindSym {
		if n := tab.Name(v.Sym); n != "" {
			return quoteSym(n)
		}
	}
	return v.String()
}

func formatCE(ce *CE, tab *value.Table) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "(%s", quoteSym(tab.Name(ce.Class)))
	for _, at := range ce.Tests {
		fmt.Fprintf(&sb, " ^%s %s", tab.Name(at.Attr), formatTests(at.Tests, tab))
	}
	sb.WriteString(")")
	return sb.String()
}

func formatTests(tests []Test, tab *value.Table) string {
	if len(tests) == 1 {
		return formatTest(tests[0], tab)
	}
	parts := make([]string, len(tests))
	for i, t := range tests {
		parts[i] = formatTest(t, tab)
	}
	return "{ " + strings.Join(parts, " ") + " }"
}

func formatTest(t Test, tab *value.Table) string {
	pred := ""
	if t.Pred != value.PredEq {
		pred = t.Pred.String() + " "
	}
	switch t.Kind {
	case TestVar:
		return fmt.Sprintf("%s<%s>", pred, tab.Name(t.Var))
	case TestConst:
		return pred + formatVal(t.Val, tab)
	case TestDisj:
		parts := make([]string, len(t.Disj))
		for i, v := range t.Disj {
			parts[i] = formatVal(v, tab)
		}
		return "<< " + strings.Join(parts, " ") + " >>"
	}
	return "?"
}

func formatAction(a *Action, tab *value.Table) string {
	var sb strings.Builder
	switch a.Kind {
	case ActMake:
		fmt.Fprintf(&sb, "(make %s", quoteSym(tab.Name(a.Class)))
		for _, s := range a.Sets {
			fmt.Fprintf(&sb, " ^%s %s", tab.Name(s.Attr), formatExpr(s.Expr, tab))
		}
		sb.WriteString(")")
	case ActRemove:
		if a.Elem != 0 {
			fmt.Fprintf(&sb, "(remove <%s>)", tab.Name(a.Elem))
			break
		}
		fmt.Fprintf(&sb, "(remove %d)", a.CE)
	case ActModify:
		if a.Elem != 0 {
			fmt.Fprintf(&sb, "(modify <%s>", tab.Name(a.Elem))
			for _, s := range a.Sets {
				fmt.Fprintf(&sb, " ^%s %s", tab.Name(s.Attr), formatExpr(s.Expr, tab))
			}
			sb.WriteString(")")
			break
		}
		fmt.Fprintf(&sb, "(modify %d", a.CE)
		for _, s := range a.Sets {
			fmt.Fprintf(&sb, " ^%s %s", tab.Name(s.Attr), formatExpr(s.Expr, tab))
		}
		sb.WriteString(")")
	case ActWrite:
		sb.WriteString("(write")
		for _, e := range a.Args {
			sb.WriteString(" " + formatExpr(e, tab))
		}
		sb.WriteString(")")
	case ActHalt:
		sb.WriteString("(halt)")
	case ActExcise:
		fmt.Fprintf(&sb, "(excise %s)", quoteSym(a.Name))
	case ActBind:
		if a.Expr != nil && a.Expr.Kind == ExprGensym {
			fmt.Fprintf(&sb, "(bind <%s>)", tab.Name(a.Var))
		} else {
			fmt.Fprintf(&sb, "(bind <%s> %s)", tab.Name(a.Var), formatExpr(a.Expr, tab))
		}
	}
	return sb.String()
}

func formatExpr(e *Expr, tab *value.Table) string {
	switch e.Kind {
	case ExprConst:
		return formatVal(e.Val, tab)
	case ExprVar:
		return fmt.Sprintf("<%s>", tab.Name(e.Var))
	case ExprGensym:
		return "(gensym)"
	case ExprCompute:
		op := string(e.Op)
		if e.Op == '/' {
			op = "//"
		}
		return fmt.Sprintf("(compute %s %s %s)", formatExpr(e.L, tab), op, formatExpr(e.R, tab))
	}
	return "?"
}
