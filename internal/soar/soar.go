// Package soar implements the Soar architecture of the paper (§3) on top of
// the PSM-E-style match engine: the Decide module with its
// elaborate/decide two-phase loop, the context stack
// (goal/problem-space/state/operator), preference-based decisions,
// universal subgoaling on impasses (tie, conflict, no-change), goal-level
// bookkeeping with automatic garbage collection of inaccessible wmes, and
// chunking with run-time addition of the learned productions.
//
// Working-memory conventions (documented substitutions for the lost Soar 4
// sources):
//
//   - The first declared attribute of every Soar wme class is the object
//     identifier the wme is attached to; a wme's goal level is its
//     identifier's level.
//   - Kernel classes: (goal ^id ^supergoal ^impasse ^role),
//     (context ^goal ^slot ^value),
//     (preference ^goal ^object ^role ^kind ^ref ^than),
//     (item ^goal ^value) for impasse candidates.
//   - Soar productions only add wmes (paper §3); remove/modify are
//     rejected at task load.
package soar

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"soarpsme/internal/chunk"
	"soarpsme/internal/engine"
	"soarpsme/internal/ops5"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// slot names the three context roles, in decision priority order.
type slot uint8

// The context slots.
const (
	slotProblemSpace slot = iota
	slotState
	slotOperator
	numSlots
)

func (s slot) String() string {
	switch s {
	case slotProblemSpace:
		return "problem-space"
	case slotState:
		return "state"
	case slotOperator:
		return "operator"
	}
	return "?"
}

// impasse is the reason a subgoal was created.
type impasse uint8

// The impasse types of §3.
const (
	impasseNone impasse = iota
	impasseTie
	impasseConflict
	impasseNoChange
)

func (i impasse) String() string {
	switch i {
	case impasseTie:
		return "tie"
	case impasseConflict:
		return "conflict"
	case impasseNoChange:
		return "no-change"
	}
	return "none"
}

// Task describes a Soar workload.
type Task struct {
	Name string
	// Source holds the task productions plus (startup ...) wmes, in the
	// engine's production language.
	Source string
	// ProblemSpace and InitialState are installed as the top context.
	ProblemSpace string
	InitialState string
}

// Config configures an agent.
type Config struct {
	Engine engine.Config
	// Chunking enables learning (the paper's during-chunking runs).
	Chunking bool
	// MaxDecisions bounds the run (0 = 500).
	MaxDecisions int
	// Trace receives decision-level logging; nil disables.
	Trace io.Writer
}

// kernel holds the interned kernel symbols.
type kernel struct {
	clsGoal, clsContext, clsPref, clsItem                      value.Sym
	aID, aSupergoal, aImpasse, aRole                           value.Sym
	aGoal, aSlot, aValue                                       value.Sym
	aObject, aKind, aRef, aThan                                value.Sym
	sProblemSpace, sState, sOperator                           value.Sym
	kAcceptable, kReject, kBest, kWorst, kBetter, kWorse, kInd value.Sym
	sTie, sConflict, sNoChange                                 value.Sym
}

// goalEntry is one frame of the context stack.
type goalEntry struct {
	id      value.Sym
	depth   int // 1 = top goal
	wme     *wme.WME
	slots   [numSlots]value.Sym
	ctxWMEs [numSlots]*wme.WME
	// impasse info for the subgoal below this goal (if any).
	subImpasse impasse
	subSlot    slot
}

// Result reports a finished run.
type Result struct {
	Decisions   int
	ElabCycles  int
	Halted      bool
	ChunksBuilt int
	// OperatorDecisions counts operator selections in the top goal — the
	// number of task-level moves made.
	OperatorDecisions int
	// ChunkCEs is the CE count of each built chunk (Table 5-1).
	ChunkCEs []int
}

// Agent is a running Soar system.
type Agent struct {
	Eng *engine.Engine
	cfg Config
	k   kernel

	task      *Task
	goals     []*goalEntry
	idLevel   map[value.Sym]int
	anchor    map[uint64]value.Sym     // wme ID -> identifier whose level it has
	byID      map[value.Sym][]*wme.WME // identifier -> its anchored wmes, registration order
	prefs     []*wme.WME               // preference wmes, registration (= time-tag) order
	records   map[uint64]*chunk.Record // created wme -> firing record
	subst     map[uint64]*wme.WME      // impasse item -> acceptable pref
	builder   *chunk.Builder
	gsym      int
	permanent map[value.Sym]bool // startup symbols: never collected, never variablized
	res       Result
	pendingC  []*ops5.Production // chunks to add at end of elaboration cycle
}

// New creates an agent for a task.
func New(cfg Config, task *Task) (*Agent, error) {
	if cfg.MaxDecisions == 0 {
		cfg.MaxDecisions = 500
	}
	eng := engine.New(cfg.Engine)
	a := &Agent{
		Eng:       eng,
		cfg:       cfg,
		task:      task,
		idLevel:   make(map[value.Sym]int),
		anchor:    make(map[uint64]value.Sym),
		byID:      make(map[value.Sym][]*wme.WME),
		records:   make(map[uint64]*chunk.Record),
		subst:     make(map[uint64]*wme.WME),
		permanent: make(map[value.Sym]bool),
	}
	a.internKernel()
	a.declareKernelClasses()
	if err := a.loadTask(); err != nil {
		return nil, err
	}
	a.builder = &chunk.Builder{
		Tab:        eng.Tab,
		Reg:        eng.Reg,
		Level:      a.wmeLevel,
		Substitute: func(w *wme.WME) *wme.WME { return a.subst[w.ID] },
		ByCreated:  func(id uint64) *chunk.Record { return a.records[id] },
		IsID:       a.isID,
		Taken:      func(name string) bool { return eng.NW.Lookup(name) != nil },
	}
	return a, nil
}

func (a *Agent) internKernel() {
	t := a.Eng.Tab
	a.k = kernel{
		clsGoal: t.Intern("goal"), clsContext: t.Intern("context"),
		clsPref: t.Intern("preference"), clsItem: t.Intern("item"),
		aID: t.Intern("id"), aSupergoal: t.Intern("supergoal"),
		aImpasse: t.Intern("impasse"), aRole: t.Intern("role"),
		aGoal: t.Intern("goal-id"), aSlot: t.Intern("slot"), aValue: t.Intern("value"),
		aObject: t.Intern("object"), aKind: t.Intern("kind"),
		aRef: t.Intern("ref"), aThan: t.Intern("than"),
		sProblemSpace: t.Intern("problem-space"), sState: t.Intern("state"),
		sOperator:   t.Intern("operator"),
		kAcceptable: t.Intern("acceptable"), kReject: t.Intern("reject"),
		kBest: t.Intern("best"), kWorst: t.Intern("worst"),
		kBetter: t.Intern("better"), kWorse: t.Intern("worse"),
		kInd: t.Intern("indifferent"),
		sTie: t.Intern("tie"), sConflict: t.Intern("conflict"), sNoChange: t.Intern("no-change"),
	}
}

func (a *Agent) declareKernelClasses() {
	r := a.Eng.Reg
	k := a.k
	r.Declare(k.clsGoal, k.aID, k.aSupergoal, k.aImpasse, k.aRole)
	r.Declare(k.clsContext, k.aGoal, k.aSlot, k.aValue)
	r.Declare(k.clsPref, k.aGoal, k.aObject, k.aRole, k.aKind, k.aRef, k.aThan)
	r.Declare(k.clsItem, k.aGoal, k.aValue)
}

// loadTask compiles the task program; Soar productions may only add wmes.
func (a *Agent) loadTask() error {
	prog, err := ops5.Parse(a.task.Source, a.Eng.Tab)
	if err != nil {
		return err
	}
	for _, p := range prog.Productions {
		for _, act := range p.RHS {
			switch act.Kind {
			case ops5.ActRemove, ops5.ActModify, ops5.ActExcise:
				return fmt.Errorf("soar: production %s: Soar productions only add wmes (paper §3)", p.Name)
			}
		}
	}
	return a.Eng.LoadProgram(a.task.Source)
}

func (a *Agent) slotSym(s slot) value.Sym {
	switch s {
	case slotProblemSpace:
		return a.k.sProblemSpace
	case slotState:
		return a.k.sState
	}
	return a.k.sOperator
}

func (a *Agent) impasseSym(i impasse) value.Sym {
	switch i {
	case impasseTie:
		return a.k.sTie
	case impasseConflict:
		return a.k.sConflict
	}
	return a.k.sNoChange
}

// isID reports whether a symbol is an object identifier for chunking
// purposes: a level-tracked id that is not a permanent task constant.
// Identifiers variablize in chunks; permanent symbols (cells, tiles,
// kernel constants) stay constant, which keeps chunks specific to the
// situations they summarize.
func (a *Agent) isID(s value.Sym) bool {
	if a.permanent[s] {
		return false
	}
	_, ok := a.idLevel[s]
	return ok
}

// wmeLevel returns the goal depth a wme is accessible from.
func (a *Agent) wmeLevel(w *wme.WME) int {
	if anchor, ok := a.anchor[w.ID]; ok {
		if lvl, ok := a.idLevel[anchor]; ok {
			return lvl
		}
	}
	return 1
}

// registerWME performs level bookkeeping for a newly created wme at the
// given creating level and returns the wme's level.
func (a *Agent) registerWME(w *wme.WME, creating int) int {
	var id value.Sym
	if len(w.Fields) > 0 && w.Fields[0].Kind == value.KindSym {
		id = w.Fields[0].Sym
	}
	if id != value.NilSym {
		if _, known := a.idLevel[id]; !known {
			a.idLevel[id] = creating
		}
		a.anchor[w.ID] = id
		a.byID[id] = append(a.byID[id], w)
	}
	if w.Class == a.k.clsPref {
		a.prefs = append(a.prefs, w)
	}
	lvl := creating
	if id != value.NilSym {
		lvl = a.idLevel[id]
	}
	// Value fields introduce or promote identifiers.
	for i := 1; i < len(w.Fields); i++ {
		f := w.Fields[i]
		if f.Kind != value.KindSym {
			continue
		}
		if cur, known := a.idLevel[f.Sym]; known {
			if cur > lvl {
				a.promote(f.Sym, lvl)
			}
		}
		// Unknown symbols stay constants until used as a wme's own id.
	}
	return lvl
}

// promote raises an identifier (and transitively the objects it reaches)
// to a shallower level — a subgoal object became accessible from a
// supergoal.
func (a *Agent) promote(id value.Sym, lvl int) {
	if cur, ok := a.idLevel[id]; !ok || cur <= lvl {
		return
	}
	a.idLevel[id] = lvl
	for _, w := range a.byID[id] {
		if a.Eng.WM.Get(w.ID) == nil {
			continue
		}
		for i := 1; i < len(w.Fields); i++ {
			f := w.Fields[i]
			if f.Kind == value.KindSym {
				if cur, ok := a.idLevel[f.Sym]; ok && cur > lvl {
					a.promote(f.Sym, lvl)
				}
			}
		}
	}
}

// gensym returns a fresh identifier registered at the given level.
func (a *Agent) gensym(prefix string, lvl int) value.Sym {
	a.gsym++
	s := a.Eng.Tab.Intern(fmt.Sprintf("%s*%d", prefix, a.gsym))
	a.idLevel[s] = lvl
	return s
}

// archWME builds and registers an architecture wme.
func (a *Agent) archWME(class value.Sym, lvl int, fields ...value.Value) *wme.WME {
	w := a.Eng.WM.Make(class, fields)
	a.registerWME(w, lvl)
	return w
}

// tracing reports whether a decision trace writer is attached. Call sites
// test it before tracef so that, untraced, no argument is rendered or boxed.
func (a *Agent) tracing() bool { return a.cfg.Trace != nil }

func (a *Agent) tracef(format string, args ...any) {
	if a.tracing() {
		fmt.Fprintf(a.cfg.Trace, format+"\n", args...)
	}
}

// Run executes decision cycles until halt, quiescence or the decision
// bound.
func (a *Agent) Run() (*Result, error) {
	if err := a.initTop(); err != nil {
		return nil, err
	}
	o := a.Eng.Obs()
	for a.res.Decisions = 0; a.res.Decisions < a.cfg.MaxDecisions && !a.Eng.Halted(); a.res.Decisions++ {
		var d0 time.Time
		if o != nil {
			d0 = time.Now()
		}
		if err := a.elaborate(); err != nil {
			return nil, err
		}
		if a.Eng.Halted() {
			if o != nil {
				a.observeDecision(d0, "elaborate-halt")
			}
			break
		}
		changed, err := a.decide()
		if err != nil {
			return nil, err
		}
		if o != nil {
			a.observeDecision(d0, "decision")
		}
		if !changed {
			break
		}
	}
	a.res.Halted = a.Eng.Halted()
	a.res.ChunksBuilt = 0
	if a.builder != nil {
		a.res.ChunksBuilt = a.builder.Count()
	}
	return &a.res, nil
}

// initTop creates the top goal and installs the task's problem space and
// initial state.
func (a *Agent) initTop() error {
	// Pre-existing startup wmes and their symbols live at the top level
	// and are permanent (never garbage collected).
	for _, w := range a.Eng.WM.All() {
		if len(w.Fields) > 0 && w.Fields[0].Kind == value.KindSym {
			id := w.Fields[0].Sym
			if _, ok := a.idLevel[id]; !ok {
				a.idLevel[id] = 1
			}
			a.permanent[id] = true
			a.anchor[w.ID] = id
			a.byID[id] = append(a.byID[id], w)
		}
		if w.Class == a.k.clsPref {
			a.prefs = append(a.prefs, w)
		}
		// Register value-field symbols as identifiers too: task objects
		// referenced before being used as ids (e.g. cell names).
		for i := 1; i < len(w.Fields); i++ {
			if f := w.Fields[i]; f.Kind == value.KindSym {
				if _, ok := a.idLevel[f.Sym]; !ok {
					a.idLevel[f.Sym] = 1
				}
				a.permanent[f.Sym] = true
			}
		}
	}
	g := a.gensym("g", 1)
	ge := &goalEntry{id: g, depth: 1}
	ge.wme = a.archWME(a.k.clsGoal, 1, value.SymVal(g))
	a.goals = []*goalEntry{ge}
	deltas := []wme.Delta{{Op: wme.Add, WME: ge.wme}}

	ps := a.Eng.Tab.Intern(a.task.ProblemSpace)
	st := a.Eng.Tab.Intern(a.task.InitialState)
	if _, ok := a.idLevel[ps]; !ok {
		a.idLevel[ps] = 1
	}
	if _, ok := a.idLevel[st]; !ok {
		a.idLevel[st] = 1
	}
	deltas = append(deltas, a.installSlot(ge, slotProblemSpace, ps)...)
	deltas = append(deltas, a.installSlot(ge, slotState, st)...)
	a.Eng.ApplyAndMatch(deltas)
	a.tracef("top goal %s: ps=%s state=%s", a.fmtSym(g), a.task.ProblemSpace, a.task.InitialState)
	return nil
}

// installSlot builds the context-wme deltas for setting a slot value
// (removing any previous context wme).
func (a *Agent) installSlot(g *goalEntry, s slot, v value.Sym) []wme.Delta {
	var deltas []wme.Delta
	if g.ctxWMEs[s] != nil {
		deltas = append(deltas, wme.Delta{Op: wme.Remove, WME: g.ctxWMEs[s]})
		g.ctxWMEs[s] = nil
	}
	g.slots[s] = v
	if v != value.NilSym {
		w := a.archWME(a.k.clsContext, g.depth,
			value.SymVal(g.id), value.SymVal(a.slotSym(s)), value.SymVal(v))
		g.ctxWMEs[s] = w
		deltas = append(deltas, wme.Delta{Op: wme.Add, WME: w})
	}
	return deltas
}

func (a *Agent) fmtSym(s value.Sym) string { return a.Eng.Tab.Name(s) }

// sortSyms orders candidate objects deterministically by structural
// signature — the contents of the wmes attached to them, with identifier
// fields masked — so decisions do not depend on gensym numbering, which
// differs between runs with and without chunking.
func (a *Agent) sortSyms(ss []value.Sym) {
	sigs := make(map[value.Sym]string, len(ss))
	for _, s := range ss {
		sigs[s] = a.signature(s)
	}
	sort.Slice(ss, func(i, j int) bool {
		if sigs[ss[i]] != sigs[ss[j]] {
			return sigs[ss[i]] < sigs[ss[j]]
		}
		return a.fmtSym(ss[i]) < a.fmtSym(ss[j])
	})
}

// signature renders the live wmes anchored at id with identifier fields
// masked, in sorted order.
func (a *Agent) signature(id value.Sym) string {
	var parts []string
	for _, w := range a.byID[id] {
		if a.Eng.WM.Get(w.ID) == nil {
			continue
		}
		var sb strings.Builder
		sb.WriteString(a.Eng.Tab.Name(w.Class))
		for i := 1; i < len(w.Fields); i++ {
			f := w.Fields[i]
			if f.Kind == value.KindSym && a.isID(f.Sym) {
				sb.WriteString("|*")
				continue
			}
			sb.WriteString("|")
			sb.WriteString(a.Eng.Tab.Format(f))
		}
		parts = append(parts, sb.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, "&")
}

// observeDecision emits one decision-cycle span on the control lane and
// bumps the decision counter. Only called when the observer is enabled.
func (a *Agent) observeDecision(start time.Time, name string) {
	o := a.Eng.Obs()
	o.Counter("decision_cycles_total").Inc()
	o.Tracer().Complete(0, 0, fmt.Sprintf("%s-%d", name, a.res.Decisions+1), "decision",
		start, time.Since(start), map[string]any{"goal-depth": len(a.goals), "elab-cycles": a.res.ElabCycles})
}

// AdoptChunks adds every chunk in from's network (the ones from learned and
// the ones it adopted itself) to a's as run-time additions, in from's
// definition order: the after-chunking run of the paper (§3). It returns how
// many it added.
func (a *Agent) AdoptChunks(from *Agent) (int, error) {
	n := 0
	for _, p := range from.Eng.NW.Productions() {
		if !strings.HasPrefix(p.Name, chunk.Prefix) {
			continue
		}
		if _, err := a.Eng.AddProductionRuntime(p.AST); err != nil {
			return n, fmt.Errorf("soar: adopt %s: %w", p.Name, err)
		}
		n++
	}
	return n, nil
}
