// Compiled program images: the engine-level face of the rete base layer.
// CompileProgram builds a program's network once and freezes it;
// NewFromImage stamps out sessions against the shared image in O(state)
// instead of O(compile) — the paper's node-sharing economy extended across
// sessions. ImageCache (cache.go) keys images by canonical program hash so
// a process serving many sessions of one program compiles it exactly once.
package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"soarpsme/internal/conflict"
	"soarpsme/internal/ops5"
	"soarpsme/internal/rete"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// ProgramImage is an immutable compiled OPS5 program: the frozen rete
// topology plus everything a session needs to run against it. The symbol
// table and class registry are shared by every session of the image (node
// tests hold table-interned symbols); both are internally locked and
// append-only, so concurrent sessions may extend them safely.
type ProgramImage struct {
	// Hash is the canonical cache key: program source + structural options.
	Hash string
	// Source is the exact source the image was compiled from.
	Source string

	tab      *value.Table
	reg      *wme.Registry
	Top      *rete.Topology
	Strategy conflict.Strategy
	// startup holds the program's startup actions; they run per-session
	// (RunStartup), not at compile time, since they create working memory.
	startup []*ops5.Action
}

// Productions returns the number of productions compiled into the image.
func (img *ProgramImage) Productions() int { return len(img.Top.Productions()) }

// programHash computes the canonical image cache key: a SHA-256 over the
// program source and the structural (topology-level) options. The
// session-level option, Unlink, is excluded: it configures per-session state,
// not the compiled graph, so sessions differing only in it share one image.
// The bilinear victim depth is a constant now, but it stays in the hashed
// text so that images and data directories written while it was an option
// keep their hashes.
func programHash(src string, opts rete.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "share=%t org=%d ctx=%d grp=%d bdepth=%d linmem=%t\n",
		opts.ShareBeta, opts.Organization, opts.ContextCEs, opts.GroupCEs,
		rete.BilinearDepth, opts.LinearMemories)
	h.Write([]byte(src))
	return hex.EncodeToString(h.Sum(nil))
}

// compileInto parses src against the network's symbol table, declares its
// classes and adds its productions — the routine an engine loading its own
// program (LoadProgram) and an image compile (CompileProgram) share. Startup
// actions are returned on the program, not executed.
func compileInto(nw *rete.Network, src string) (*ops5.Program, error) {
	prog, err := ops5.Parse(src, nw.Tab)
	if err != nil {
		return nil, err
	}
	for _, lit := range prog.Literalize {
		nw.Reg.Declare(lit.Class, lit.Attrs...)
	}
	for _, p := range prog.Productions {
		if _, _, err := nw.AddProduction(p); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// CompileProgram parses and compiles an OPS5 program into a frozen,
// shareable image. Startup actions are recorded, not executed.
func CompileProgram(src string, opts rete.Options) (*ProgramImage, error) {
	nw := rete.NewNetwork(value.NewTable(), wme.NewRegistry(), nil, opts)
	prog, err := compileInto(nw, src)
	if err != nil {
		return nil, err
	}
	return &ProgramImage{
		Hash:     programHash(src, opts),
		Source:   src,
		tab:      nw.Tab,
		reg:      nw.Reg,
		Top:      nw.Freeze(),
		Strategy: conflict.ParseStrategy(prog.Strategy),
		startup:  prog.Startup,
	}, nil
}

// Image returns the compiled image this engine was created from: the empty
// program's for an engine made by New.
func (e *Engine) Image() *ProgramImage { return e.img }

// RunStartup executes the image's startup actions, if it has any, as one
// match cycle.
func (e *Engine) RunStartup() error { return e.runStartup(e.img.startup) }
