package soar

import (
	"fmt"
	"time"

	"soarpsme/internal/chunk"
	"soarpsme/internal/conflict"
	"soarpsme/internal/wme"
)

// elaborate runs the elaboration phase: fire every new instantiation in
// parallel, match, and repeat until quiescence (paper §3). Chunks built
// from subgoal results are added to the network at the end of the
// elaboration cycle in which they arose (paper §5.1: "Soar adds chunks
// only at the end of an elaboration cycle, i.e., when the match is
// quiescent").
func (a *Agent) elaborate() error {
	for guard := 0; ; guard++ {
		if guard > 10000 {
			return fmt.Errorf("soar: elaboration did not reach quiescence")
		}
		added, _ := a.Eng.CS.Drain()
		live := added[:0]
		for _, in := range added {
			if a.instLive(in) {
				live = append(live, in)
			}
		}
		if len(live) == 0 {
			return nil
		}
		a.res.ElabCycles++
		if o := a.Eng.Obs(); o != nil {
			o.Counter("elaboration_cycles_total").Inc()
		}
		var deltas []wme.Delta
		for _, in := range live {
			ds, err := a.Eng.FireInstantiation(in)
			if err != nil {
				return err
			}
			gl := a.instLevel(in)
			var rec *chunk.Record // made at the firing's first new wme
			for _, d := range ds {
				if d.Op != wme.Add {
					return fmt.Errorf("soar: %s removed a wme", in.Prod.Name)
				}
				if a.dupInBatch(deltas, d.WME) || a.Eng.WM.FindEqual(d.WME) != nil {
					continue // Soar working memory is a set
				}
				lvl := a.registerWME(d.WME, gl)
				if rec == nil {
					rec = &chunk.Record{Prod: in.Prod, Matched: in.WMEs, Created: make([]*wme.WME, 0, len(ds)), Level: gl}
				}
				rec.Created = append(rec.Created, d.WME)
				a.records[d.WME.ID] = rec
				deltas = append(deltas, d)
				if lvl < gl && a.tracing() {
					a.tracef("  result %s from %s (level %d < %d)",
						d.WME.Format(a.Eng.Tab, a.Eng.Reg), in.Prod.Name, lvl, gl)
				}
			}
			if a.cfg.Chunking && rec != nil && gl > 1 {
				ast, name, err := a.builder.Build(rec)
				if err != nil {
					return err
				}
				if ast != nil {
					a.pendingC = append(a.pendingC, ast)
					a.res.ChunkCEs = append(a.res.ChunkCEs, len(ast.LHS))
					if a.tracing() {
						a.tracef("  built %s (%d CEs)", name, len(ast.LHS))
					}
					if o := a.Eng.Obs(); o != nil {
						o.Counter("chunks_built_total").Inc()
						o.Tracer().Instant(0, 0, "chunk-built:"+name, "chunk", time.Now(),
							map[string]any{"ces": len(ast.LHS), "level": gl})
					}
				}
			}
			if a.Eng.Halted() {
				// Finish firing the drained set (parallel semantics), but
				// the run stops after this elaboration cycle.
				continue
			}
		}
		a.Eng.ApplyAndMatch(deltas)
		// End of elaboration cycle: compile pending chunks into the
		// network and update their state (paper §5).
		for _, ast := range a.pendingC {
			if _, err := a.Eng.AddProductionRuntime(ast); err != nil {
				return err
			}
		}
		a.pendingC = a.pendingC[:0]
		if a.Eng.Halted() {
			return nil
		}
	}
}

// instLive reports whether every wme of an instantiation is still in WM
// (subgoal removal may have collected some between cycles).
func (a *Agent) instLive(in *conflict.Instantiation) bool {
	for _, w := range in.WMEs {
		if a.Eng.WM.Get(w.ID) == nil {
			return false
		}
	}
	return true
}

// instLevel is the goal depth of an instantiation: the deepest level among
// its matched wmes.
func (a *Agent) instLevel(in *conflict.Instantiation) int {
	lvl := 1
	for _, w := range in.WMEs {
		if l := a.wmeLevel(w); l > lvl {
			lvl = l
		}
	}
	return lvl
}

func (a *Agent) dupInBatch(deltas []wme.Delta, w *wme.WME) bool {
	for _, d := range deltas {
		if d.Op == wme.Add && d.WME.EqualContents(w) {
			return true
		}
	}
	return false
}
