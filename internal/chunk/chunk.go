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
	vars    []value.Sym       // v1, v2, ...: interned once, shared by every chunk

	// Scratch, cleared and reused by every Build; nothing in it outlives
	// the call. The AST a Build returns is the production, so it is carved
	// from arrays of its own and never recycled.
	visited map[uint64]bool         // backtrace: wmes already traced
	queue   []*wme.WME              // backtrace: wmes left to trace
	conds   []*wme.WME              // backtrace's conditions
	order   []*wme.WME              // orderLinked's output
	used    []bool                  // orderLinked: conds already taken
	bound   map[value.Sym]bool      // orderLinked: identifiers the taken conds bind
	results []*wme.WME              // the firing's result wmes
	varOf   map[value.Sym]value.Sym // identifier -> its variable in this chunk
	fields  []field                 // every rendered field: the conds', then the results'
	ends    []int                   // where each cond's, then each result's, fields end
	fresh   []value.Sym             // variables of identifiers only the results mention
}

// field is one wme field as a chunk renders it: a variable when the field
// holds an identifier, the constant val otherwise.
type field struct {
	attr value.Sym
	val  value.Value
	v    value.Sym // 0: a constant
}

func (b *Builder) ensure() {
	if b.seen == nil {
		b.seen = make(map[string]string)
		b.visited = make(map[uint64]bool)
		b.bound = make(map[value.Sym]bool)
		b.varOf = make(map[value.Sym]value.Sym)
	}
}

// Build constructs the chunk for a firing whose Created set includes result
// wmes (level < rec.Level). It returns (nil, "") when every action turns
// out to be local, and (nil, name) when an identical chunk already exists.
func (b *Builder) Build(rec *Record) (*ops5.Production, string, error) {
	b.ensure()
	b.results = b.results[:0]
	for _, w := range rec.Created {
		if b.Level(w) < rec.Level {
			b.results = append(b.results, w)
		}
	}
	if len(b.results) == 0 {
		return nil, "", nil
	}
	conds := b.backtrace(rec)
	if len(conds) == 0 {
		return nil, "", fmt.Errorf("chunk: no supergoal conditions for results of %s", rec.Prod.Name)
	}
	ast := b.buildAST(b.orderLinked(conds), b.results)
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
// substitutes), until only supergoal wmes remain. The conditions it returns
// are scratch, valid until the next Build.
func (b *Builder) backtrace(rec *Record) []*wme.WME {
	gl := rec.Level
	clear(b.visited)
	conds := b.conds[:0]
	queue := append(b.queue[:0], rec.Matched...)
	for i := 0; i < len(queue); i++ {
		w := queue[i]
		if b.visited[w.ID] {
			continue
		}
		b.visited[w.ID] = true
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
	b.queue, b.conds = queue, conds
	slices.SortFunc(conds, func(x, y *wme.WME) int { return cmp.Compare(x.ID, y.ID) })
	return conds
}

// orderLinked orders conditions so that each CE (after the first) shares an
// identifier with an earlier CE where possible — Soar's condition ordering,
// which is also what makes chunk join chains connected (paper §6.1). The
// order it returns is scratch, valid until the next Build.
func (b *Builder) orderLinked(conds []*wme.WME) []*wme.WME {
	if len(conds) <= 1 {
		return conds
	}
	clear(b.bound)
	used := append(b.used[:0], make([]bool, len(conds))...)
	out := b.order[:0]
	take := func(i int) {
		used[i] = true
		out = append(out, conds[i])
		for _, f := range conds[i].Fields {
			if f.Kind == value.KindSym && b.IsID(f.Sym) {
				b.bound[f.Sym] = true
			}
		}
	}
	// linked reports whether w holds an identifier a taken cond binds.
	linked := func(w *wme.WME) bool {
		for _, f := range w.Fields {
			if f.Kind == value.KindSym && b.bound[f.Sym] {
				return true
			}
		}
		return false
	}
	take(0)
	for len(out) < len(conds) {
		picked := -1
		for i, w := range conds {
			if !used[i] && linked(w) {
				picked = i
				break
			}
		}
		if picked < 0 {
			// No linked condition left; take the first unused.
			picked = slices.Index(used, false)
		}
		take(picked)
	}
	b.used, b.order = used, out
	return out
}

// varFor returns the variable of identifier s in the chunk being built,
// numbering a new one v1, v2, ... in order of first use.
func (b *Builder) varFor(s value.Sym) value.Sym {
	if v, ok := b.varOf[s]; ok {
		return v
	}
	n := len(b.varOf)
	if n == len(b.vars) {
		b.vars = append(b.vars, b.Tab.Intern("v"+strconv.Itoa(n+1)))
	}
	b.varOf[s] = b.vars[n]
	return b.vars[n]
}

// collect appends the fields of w a chunk renders — those its class's
// schema names — to b.fields, variablizing identifiers, and closes the
// wme's span in b.ends.
func (b *Builder) collect(w *wme.WME) {
	if schema := b.Reg.Get(w.Class, false); schema != nil {
		attrs := schema.Attrs()
		for i, f := range w.Fields {
			if f.IsNil() || i >= len(attrs) {
				continue
			}
			fd := field{attr: attrs[i], val: f}
			if f.Kind == value.KindSym && b.IsID(f.Sym) {
				fd.v = b.varFor(f.Sym)
			}
			b.fields = append(b.fields, fd)
		}
	}
	b.ends = append(b.ends, len(b.fields))
}

// carve returns a[i:j] with its capacity cut at j, so that an append to it
// copies instead of writing into the next span; an empty span is nil, as
// an AST built by appends has it.
func carve[T any](a []T, i, j int) []T {
	if i == j {
		return nil
	}
	return a[i:j:j]
}

// buildAST renders conditions and result actions as a production AST,
// variablizing identifiers consistently. It walks the wmes once into
// scratch, then carves the AST from one exact-size array per node type, so
// a chunk costs the same number of allocations whatever its size.
func (b *Builder) buildAST(conds, results []*wme.WME) *ops5.Production {
	clear(b.varOf)
	b.fields, b.ends, b.fresh = b.fields[:0], b.ends[:0], b.fresh[:0]
	for _, w := range conds {
		b.collect(w)
	}
	nTests := len(b.fields)
	// Identifiers appearing only in actions are fresh objects: bind them
	// to gensyms first.
	for _, w := range results {
		for _, f := range w.Fields {
			if f.Kind == value.KindSym && b.IsID(f.Sym) {
				if _, ok := b.varOf[f.Sym]; !ok {
					b.fresh = append(b.fresh, b.varFor(f.Sym))
				}
			}
		}
	}
	for _, w := range results {
		b.collect(w)
	}
	nSets := len(b.fields) - nTests

	items := make([]ops5.CondItem, len(conds))
	ces := make([]ops5.CE, len(conds))
	ats := make([]ops5.AttrTest, nTests)
	tests := make([]ops5.Test, nTests)
	acts := make([]ops5.Action, len(b.fresh)+len(results))
	sets := make([]ops5.AttrSet, nSets)
	exprs := make([]ops5.Expr, len(b.fresh)+nSets)
	p := &ops5.Production{LHS: make([]*ops5.CondItem, len(conds)), RHS: make([]*ops5.Action, len(acts))}

	start := 0
	for i, w := range conds {
		end := b.ends[i]
		for j := start; j < end; j++ {
			if f := b.fields[j]; f.v != 0 {
				tests[j] = ops5.Test{Kind: ops5.TestVar, Var: f.v}
			} else {
				tests[j] = ops5.Test{Kind: ops5.TestConst, Val: f.val}
			}
			ats[j] = ops5.AttrTest{Attr: b.fields[j].attr, Tests: tests[j : j+1 : j+1]}
		}
		ces[i] = ops5.CE{Class: w.Class, Tests: carve(ats, start, end)}
		items[i] = ops5.CondItem{Kind: ops5.CondPos, CE: &ces[i]}
		p.LHS[i] = &items[i]
		start = end
	}
	for i, v := range b.fresh {
		exprs[i] = ops5.Expr{Kind: ops5.ExprGensym}
		acts[i] = ops5.Action{Kind: ops5.ActBind, Var: v, Expr: &exprs[i]}
	}
	e := exprs[len(b.fresh):]
	for i, w := range results {
		end := b.ends[len(conds)+i]
		for j := start; j < end; j++ {
			k := j - nTests
			if f := b.fields[j]; f.v != 0 {
				e[k] = ops5.Expr{Kind: ops5.ExprVar, Var: f.v}
			} else {
				e[k] = ops5.Expr{Kind: ops5.ExprConst, Val: f.val}
			}
			sets[k] = ops5.AttrSet{Attr: b.fields[j].attr, Expr: &e[k]}
		}
		acts[len(b.fresh)+i] = ops5.Action{Kind: ops5.ActMake, Class: w.Class, Sets: carve(sets, start-nTests, end-nTests)}
		start = end
	}
	for i := range acts {
		p.RHS[i] = &acts[i]
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
