// Package chunk implements Soar's chunking mechanism (paper §3): it records
// production firings, performs the dependency backtrace from result wmes to
// the supergoal wmes that produced them, variablizes identifiers, and
// constructs a new production — the chunk — ready for run-time addition to
// the match network.
package chunk

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"soarpsme/internal/ops5"
	"soarpsme/internal/rete"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// Record is the trace of one production firing: the instantiation's wmes
// and the wmes its actions created, at a given goal level.
type Record struct {
	Prod    *rete.Production
	Matched []*wme.WME
	Created []*wme.WME
	Level   int // goal depth of the firing (deepest matched wme)
}

// Prefix starts the name of every chunk Build makes: chunk-1, chunk-2, ...
const Prefix = "chunk-"

// Builder accumulates chunks. The owning architecture supplies the level,
// substitution and provenance oracles.
type Builder struct {
	Tab *value.Table
	Reg *wme.Registry

	// Level returns the goal depth a wme is accessible from.
	Level func(w *wme.WME) int
	// Substitute maps an architecture-created wme (e.g. an impasse item)
	// to the wme that justifies it (the candidate's acceptable
	// preference); nil means the wme terminates backtracing silently.
	Substitute func(w *wme.WME) *wme.WME
	// ByCreated returns the firing record that created a wme, if any.
	ByCreated func(id uint64) *Record
	// IsID reports whether a symbol is an object identifier (variablized)
	// as opposed to a constant.
	IsID func(s value.Sym) bool
	// Taken, when set, reports names already present in the network (e.g.
	// chunks transferred from an earlier run); the namer skips them.
	Taken func(name string) bool

	counter int
	seen    map[string]string // canonical body -> chunk name
	key     []byte            // appendCanonical's buffer, reused across builds
}

func (b *Builder) ensure() {
	if b.seen == nil {
		b.seen = make(map[string]string)
	}
}

// Build constructs the chunk for a firing whose Created set includes result
// wmes (level < rec.Level). It returns (nil, "") when every action turns
// out to be local, and (nil, name) when an identical chunk already exists.
func (b *Builder) Build(rec *Record) (*ops5.Production, string, error) {
	b.ensure()
	var results []*wme.WME
	for _, w := range rec.Created {
		if b.Level(w) < rec.Level {
			results = append(results, w)
		}
	}
	if len(results) == 0 {
		return nil, "", nil
	}
	conds, err := b.backtrace(rec)
	if err != nil {
		return nil, "", err
	}
	if len(conds) == 0 {
		return nil, "", fmt.Errorf("chunk: no supergoal conditions for results of %s", rec.Prod.Name)
	}
	conds = orderLinked(conds, b)
	ast := b.buildAST(conds, results)
	b.key = appendCanonical(b.key[:0], ast)
	if name, dup := b.seen[string(b.key)]; dup {
		return nil, name, nil
	}
	for {
		b.counter++
		ast.Name = Prefix + strconv.Itoa(b.counter)
		if b.Taken == nil || !b.Taken(ast.Name) {
			break
		}
	}
	b.seen[string(b.key)] = ast.Name
	return ast, ast.Name, nil
}

// Count returns the number of distinct chunks built.
func (b *Builder) Count() int { return b.counter }

// backtrace walks the dependency graph: subgoal-local wmes are replaced by
// the wmes matched by the firing that created them (or their architecture
// substitutes), until only supergoal wmes remain.
func (b *Builder) backtrace(rec *Record) ([]*wme.WME, error) {
	gl := rec.Level
	var conds []*wme.WME
	seen := map[uint64]bool{}
	queue := append([]*wme.WME(nil), rec.Matched...)
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		if seen[w.ID] {
			continue
		}
		seen[w.ID] = true
		if b.Level(w) < gl {
			conds = append(conds, w)
			continue
		}
		if sub := b.Substitute(w); sub != nil {
			queue = append(queue, sub)
			continue
		}
		if r := b.ByCreated(w.ID); r != nil {
			queue = append(queue, r.Matched...)
			continue
		}
		// Architecture wme of the subgoal (goal/context): terminates the
		// trace without contributing a condition.
	}
	slices.SortFunc(conds, func(x, y *wme.WME) int { return cmp.Compare(x.ID, y.ID) })
	return conds, nil
}

// orderLinked orders conditions so that each CE (after the first) shares an
// identifier with an earlier CE where possible — Soar's condition ordering,
// which is also what makes chunk join chains connected (paper §6.1).
func orderLinked(conds []*wme.WME, b *Builder) []*wme.WME {
	if len(conds) <= 1 {
		return conds
	}
	ids := func(w *wme.WME) []value.Sym {
		var out []value.Sym
		for _, f := range w.Fields {
			if f.Kind == value.KindSym && b.IsID(f.Sym) {
				out = append(out, f.Sym)
			}
		}
		return out
	}
	used := make([]bool, len(conds))
	bound := map[value.Sym]bool{}
	var out []*wme.WME
	take := func(i int) {
		used[i] = true
		out = append(out, conds[i])
		for _, s := range ids(conds[i]) {
			bound[s] = true
		}
	}
	take(0)
	for len(out) < len(conds) {
		picked := -1
		for i, w := range conds {
			if used[i] {
				continue
			}
			for _, s := range ids(w) {
				if bound[s] {
					picked = i
					break
				}
			}
			if picked >= 0 {
				break
			}
		}
		if picked < 0 {
			// No linked condition left; take the first unused.
			for i := range conds {
				if !used[i] {
					picked = i
					break
				}
			}
		}
		take(picked)
	}
	return out
}

// buildAST renders conditions and result actions as a production AST,
// variablizing identifiers consistently.
func (b *Builder) buildAST(conds, results []*wme.WME) *ops5.Production {
	vars := map[value.Sym]value.Sym{} // identifier -> variable name
	nv := 0
	varFor := func(s value.Sym) value.Sym {
		if v, ok := vars[s]; ok {
			return v
		}
		nv++
		v := b.Tab.Intern("v" + strconv.Itoa(nv))
		vars[s] = v
		return v
	}
	p := &ops5.Production{}
	for _, w := range conds {
		ce := &ops5.CE{Class: w.Class}
		schema := b.Reg.Get(w.Class, false)
		for i, f := range w.Fields {
			if f.IsNil() || schema == nil || i >= len(schema.Attrs()) {
				continue
			}
			attr := schema.Attrs()[i]
			var t ops5.Test
			if f.Kind == value.KindSym && b.IsID(f.Sym) {
				t = ops5.Test{Kind: ops5.TestVar, Var: varFor(f.Sym)}
			} else {
				t = ops5.Test{Kind: ops5.TestConst, Val: f}
			}
			ce.Tests = append(ce.Tests, ops5.AttrTest{Attr: attr, Tests: []ops5.Test{t}})
		}
		p.LHS = append(p.LHS, &ops5.CondItem{Kind: ops5.CondPos, CE: ce})
	}
	// Identifiers appearing only in actions are fresh objects: bind them
	// to gensyms first.
	condVars := map[value.Sym]bool{}
	for s := range vars {
		condVars[s] = true
	}
	for _, w := range results {
		for _, f := range w.Fields {
			if f.Kind == value.KindSym && b.IsID(f.Sym) && !condVars[f.Sym] {
				if _, ok := vars[f.Sym]; !ok {
					v := varFor(f.Sym)
					p.RHS = append(p.RHS, &ops5.Action{Kind: ops5.ActBind, Var: v, Expr: &ops5.Expr{Kind: ops5.ExprGensym}})
				}
			}
		}
	}
	for _, w := range results {
		act := &ops5.Action{Kind: ops5.ActMake, Class: w.Class}
		schema := b.Reg.Get(w.Class, false)
		for i, f := range w.Fields {
			if f.IsNil() || schema == nil || i >= len(schema.Attrs()) {
				continue
			}
			attr := schema.Attrs()[i]
			var e *ops5.Expr
			if f.Kind == value.KindSym && b.IsID(f.Sym) {
				e = &ops5.Expr{Kind: ops5.ExprVar, Var: vars[f.Sym]}
			} else {
				e = &ops5.Expr{Kind: ops5.ExprConst, Val: f}
			}
			act.Sets = append(act.Sets, ops5.AttrSet{Attr: attr, Expr: e})
		}
		p.RHS = append(p.RHS, act)
	}
	return p
}

// appendCanonical appends a name-independent body signature for duplicate
// detection, e.g. "(3 1:?40 2:=sym#17)->(make 3 1:?40)"
// (testdata/canonical.golden).
func appendCanonical(b []byte, p *ops5.Production) []byte {
	sym := func(b []byte, s value.Sym) []byte { return strconv.AppendUint(b, uint64(s), 10) }
	for _, ci := range p.LHS {
		b = sym(append(b, '('), ci.CE.Class)
		for _, at := range ci.CE.Tests {
			b = append(sym(append(b, ' '), at.Attr), ':')
			for _, t := range at.Tests {
				switch t.Kind {
				case ops5.TestVar:
					b = sym(append(b, '?'), t.Var)
				case ops5.TestConst:
					b = t.Val.AppendTo(append(b, '='))
				}
			}
		}
		b = append(b, ')')
	}
	b = append(b, "->"...)
	for _, a := range p.RHS {
		b = sym(append(append(append(b, '('), a.Kind.String()...), ' '), a.Class)
		for _, s := range a.Sets {
			b = append(sym(append(b, ' '), s.Attr), ':')
			if s.Expr.Kind == ops5.ExprVar {
				b = sym(append(b, '?'), s.Expr.Var)
			} else {
				b = s.Expr.Val.AppendTo(append(b, '='))
			}
		}
		b = append(b, ')')
	}
	return b
}
