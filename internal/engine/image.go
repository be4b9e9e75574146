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
// topology plus everything a session needs to run against it. Nothing in it
// is written after the compile: each session stamped from it interns into
// and extends its own copies of the topology's symbol table and class
// registry.
type ProgramImage struct {
	// Hash is the canonical cache key: program source + structural options.
	Hash string
	// Source is the exact source the image was compiled from.
	Source string

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

// compileInto declares a parsed program's classes and adds its productions
// to the network — the routine an engine loading its own program
// (LoadProgram, LoadParsed) and an image compile (CompileProgram) share.
// The program was parsed against the network's symbol table and is only
// read, so one parse may be compiled into many networks whose tables are
// copies of that table. Startup actions are not executed.
func compileInto(nw *rete.Network, prog *ops5.Program) error {
	for _, lit := range prog.Literalize {
		nw.Reg.Declare(lit.Class, lit.Attrs...)
	}
	for _, p := range prog.Productions {
		if _, _, err := nw.AddProduction(p); err != nil {
			return err
		}
	}
	return nil
}

// CompileProgram parses and compiles an OPS5 program into a frozen,
// shareable image. Startup actions are recorded, not executed.
func CompileProgram(src string, opts rete.Options) (*ProgramImage, error) {
	return compileImage(value.NewTable(), src, opts)
}

// compileImage is CompileProgram with its symbols interned in tab.
func compileImage(tab *value.Table, src string, opts rete.Options) (*ProgramImage, error) {
	nw := rete.NewNetwork(tab, wme.NewRegistry(), nil, opts)
	prog, err := ops5.Parse(src, tab)
	if err != nil {
		return nil, err
	}
	if err := compileInto(nw, prog); err != nil {
		return nil, err
	}
	return &ProgramImage{
		Hash:     programHash(src, opts),
		Source:   src,
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
