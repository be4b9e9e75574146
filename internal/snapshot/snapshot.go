// Package snapshot serializes full engine session state — working memory,
// the production set (source OPS5 plus runtime-added chunks), refraction
// memory, and counters — into a versioned, checksummed image that any node
// can restore by rebuilding match state through the engine's serial-replay
// machinery (the paper's run-time state-update algorithm used as a
// migration primitive). Token memories and conflict-set contents are NOT
// serialized: they are pure functions of (productions, WM) and are
// re-derived on restore, which keeps images small and makes the format
// independent of the Rete implementation's in-memory layout.
package snapshot

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strings"

	"soarpsme/internal/conflict"
	"soarpsme/internal/engine"
	"soarpsme/internal/ops5"
	"soarpsme/internal/rete"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// FormatVersion is the image format version; Decode rejects images whose
// version it does not understand. Version 2 added compiled-image fields
// (BaseHash, Chunks, Schema, TopoSig); version-1 images are still readable
// and restore through the standalone path.
const FormatVersion = 2

// envelope wraps any payload with a format version and a CRC32 (Castagnoli)
// over the raw payload bytes, so torn or corrupted files fail loudly
// instead of restoring silently-wrong state.
type envelope struct {
	Version int             `json:"version"`
	CRC     uint32          `json:"crc"`
	Payload json.RawMessage `json:"payload"`
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Seal wraps payload in a versioned, checksummed envelope.
func Seal(payload any) ([]byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{
		Version: FormatVersion,
		CRC:     crc32.Checksum(raw, crcTable),
		Payload: raw,
	})
}

// Open verifies an envelope's version and checksum and unmarshals the
// payload into out.
func Open(data []byte, out any) error {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("snapshot: bad envelope: %w", err)
	}
	if env.Version < 1 || env.Version > FormatVersion {
		return fmt.Errorf("snapshot: format version %d, want 1..%d", env.Version, FormatVersion)
	}
	if got := crc32.Checksum(env.Payload, crcTable); got != env.CRC {
		return fmt.Errorf("snapshot: checksum mismatch: payload crc %08x, envelope says %08x", got, env.CRC)
	}
	if err := json.Unmarshal(env.Payload, out); err != nil {
		return fmt.Errorf("snapshot: bad payload: %w", err)
	}
	return nil
}

// ValueRec is one field value in portable kind-tagged form.
type ValueRec struct {
	K string  `json:"k"` // "n" nil, "s" symbol, "i" int, "f" float
	S string  `json:"s,omitempty"`
	I int64   `json:"i,omitempty"`
	F float64 `json:"f,omitempty"`
}

func encodeValue(tab *value.Table, v value.Value) ValueRec {
	switch v.Kind {
	case value.KindSym:
		return ValueRec{K: "s", S: tab.Name(v.Sym)}
	case value.KindInt:
		return ValueRec{K: "i", I: v.Int()}
	case value.KindFloat:
		return ValueRec{K: "f", F: v.Float()}
	default:
		return ValueRec{K: "n"}
	}
}

func decodeValue(tab *value.Table, r ValueRec) (value.Value, error) {
	switch r.K {
	case "s":
		return tab.SymV(r.S), nil
	case "i":
		return value.IntVal(r.I), nil
	case "f":
		return value.FloatVal(r.F), nil
	case "n", "":
		return value.Nil, nil
	default:
		return value.Nil, fmt.Errorf("snapshot: unknown value kind %q", r.K)
	}
}

// SchemaRec is one class's attribute list in schema (field-index) order.
type SchemaRec struct {
	Class string   `json:"class"`
	Attrs []string `json:"attrs"`
}

// WMERec is one working-memory element in portable form. Identity and
// time tag are preserved exactly: refraction entries and conflict-set
// fingerprints are keyed by time tag, so a restore that re-tagged wmes
// would not be byte-identical.
type WMERec struct {
	ID     uint64     `json:"id"`
	Tag    uint64     `json:"tag"`
	Class  string     `json:"class"`
	Fields []ValueRec `json:"fields"`
}

func encodeWME(tab *value.Table, w *wme.WME) WMERec {
	fs := make([]ValueRec, len(w.Fields))
	for i, f := range w.Fields {
		fs[i] = encodeValue(tab, f)
	}
	return WMERec{ID: w.ID, Tag: w.TimeTag, Class: tab.Name(w.Class), Fields: fs}
}

func decodeWME(tab *value.Table, r WMERec) (*wme.WME, error) {
	fs := make([]value.Value, len(r.Fields))
	for i, vr := range r.Fields {
		v, err := decodeValue(tab, vr)
		if err != nil {
			return nil, err
		}
		fs[i] = v
	}
	return &wme.WME{ID: r.ID, TimeTag: r.Tag, Class: tab.Intern(r.Class), Fields: fs}, nil
}

// Image is the serialized state of one engine.
type Image struct {
	// Program is generated OPS5 source that reconstructs the full rule
	// state: literalize declarations in schema order (so compiled field
	// indices are identical), the strategy, and every production currently
	// in the network — including runtime-added chunks — printed via
	// ops5.Format. It deliberately has no startup section; loading it must
	// not touch working memory.
	//
	// For engines created from a shared compiled image, Program is instead
	// the image's exact original source: its hash is the image-cache key, so
	// a restoring node with the image already compiled pays no compile at
	// all. Runtime-added chunks then live in Chunks, and Schema pins the
	// field-index order (see those fields).
	Program string `json:"program"`

	// BaseHash, when non-empty, marks an image-backed snapshot: it is the
	// canonical hash of Program under the exporting engine's structural
	// options. Restore recompiles (or cache-hits) the base image and fails
	// loudly if the hash or topology signature diverges.
	BaseHash string `json:"baseHash,omitempty"`
	// Chunks holds the OPS5 source of every production the session spliced
	// onto its private suffix at runtime, in addition order.
	Chunks []string `json:"chunks,omitempty"`
	// Schema records every class's attribute list in registry order. Field
	// indices are positional and runtime firings may have extended schemas
	// in firing order, so restore re-imposes this exact order before any
	// wme is decoded.
	Schema []SchemaRec `json:"schema,omitempty"`
	// TopoSig is the base topology's shape signature at export; restore
	// verifies the recompiled image matches it.
	TopoSig *rete.Sig `json:"topoSig,omitempty"`

	WMEs    []WMERec `json:"wmes"`
	NextID  uint64   `json:"nextId"`
	NextTag uint64   `json:"nextTag"`

	// Fired is the refraction memory (production name + CE-order time
	// tags); the live conflict set itself is re-derived by replay.
	Fired []conflict.FiredEntry `json:"fired,omitempty"`

	Halted    bool  `json:"halted,omitempty"`
	Gensym    int64 `json:"gensym,omitempty"`
	FireCount int   `json:"fireCount,omitempty"`
	BadDeltas int   `json:"badDeltas,omitempty"`
	Cycles    int   `json:"cycles"` // informational: match cycles run at export
}

// ProgramSource generates self-contained OPS5 source for the engine's
// current rule state. Classes are emitted in ascending Sym order with
// their complete attribute lists in schema order, so parsing the source
// reproduces every compiled field index; productions are emitted in
// network definition order, which covers runtime-added chunks the
// original source never contained.
func ProgramSource(e *engine.Engine) string {
	var b strings.Builder
	for _, cls := range e.Reg.Classes() {
		s := e.Reg.Get(cls, false)
		if s == nil {
			continue
		}
		b.WriteString("(literalize ")
		b.WriteString(ops5.QuoteSym(e.Tab.Name(cls)))
		for _, a := range s.Attrs() {
			b.WriteByte(' ')
			b.WriteString(ops5.QuoteSym(e.Tab.Name(a)))
		}
		b.WriteString(")\n")
	}
	if e.Strategy() == conflict.MEA {
		b.WriteString("(strategy mea)\n")
	}
	for _, p := range e.NW.Productions() {
		b.WriteString(ops5.Format(p.AST, e.Tab))
		b.WriteByte('\n')
	}
	return b.String()
}

// Export captures the engine's state as an Image. The engine must be at
// quiescence (between cycles); the serving layer guarantees this by
// exporting from the session command loop.
func Export(e *engine.Engine) *Image {
	img := &Image{
		Fired:     e.CS.ExportFired(),
		Halted:    e.Halted(),
		Gensym:    e.Gensym(),
		FireCount: e.Fired,
		BadDeltas: e.BadDeltas,
		Cycles:    int(e.Cycles()),
	}
	if base := e.Image(); base != nil {
		// Image-backed engine: record the original source (its hash is the
		// cache key), the own layer's chunks, and the schema order instead
		// of a regenerated monolithic program.
		img.Program = base.Source
		img.BaseHash = base.Hash
		for _, p := range e.NW.OwnProductions() {
			img.Chunks = append(img.Chunks, ops5.Format(p.AST, e.Tab))
		}
		for _, cls := range e.Reg.Classes() {
			s := e.Reg.Get(cls, false)
			if s == nil {
				continue
			}
			rec := SchemaRec{Class: e.Tab.Name(cls)}
			for _, a := range s.Attrs() {
				rec.Attrs = append(rec.Attrs, e.Tab.Name(a))
			}
			img.Schema = append(img.Schema, rec)
		}
		sig := base.Top.Signature()
		img.TopoSig = &sig
	} else {
		img.Program = ProgramSource(e)
	}
	img.NextID, img.NextTag = e.WM.Counters()
	all := e.WM.All()
	img.WMEs = make([]WMERec, len(all))
	for i, w := range all {
		img.WMEs[i] = encodeWME(e.Tab, w)
	}
	return img
}

// Encode serializes the image into its versioned, checksummed wire form.
func (img *Image) Encode() ([]byte, error) { return Seal(img) }

// Decode verifies and deserializes an encoded image.
func Decode(data []byte) (*Image, error) {
	var img Image
	if err := Open(data, &img); err != nil {
		return nil, err
	}
	return &img, nil
}

// Restore builds a fresh engine from an image. Image-backed snapshots
// (BaseHash set) compile their base program directly; use RestoreWithCache
// to share compiled topologies across restores. The result is
// byte-identical to the exporting engine: same conflict set, same
// fingerprints, same counters.
func Restore(img *Image, cfg engine.Config) (*engine.Engine, error) {
	e, _, err := RestoreWithCache(img, cfg, nil)
	return e, err
}

// RestoreWithCache restores an engine, resolving image-backed snapshots
// through cache (which may be nil to force a private compile). cacheHit
// reports whether the base topology came out of the cache without a
// compile. A recompiled base whose program hash or topology signature
// diverges from the snapshot's record fails loudly: restoring state
// vectors against a different graph would be silent corruption.
func RestoreWithCache(img *Image, cfg engine.Config, cache *engine.ImageCache) (*engine.Engine, bool, error) {
	if img.BaseHash == "" {
		// v1 / standalone snapshot: the program is self-contained (schema
		// order and chunks are baked into the generated source).
		e := engine.New(cfg)
		if err := e.LoadProgram(img.Program); err != nil {
			e.Close()
			return nil, false, fmt.Errorf("snapshot: reloading program: %w", err)
		}
		if err := restoreState(e, img); err != nil {
			e.Close()
			return nil, false, err
		}
		return e, false, nil
	}

	var (
		base *engine.ProgramImage
		hit  bool
		err  error
	)
	if cache != nil {
		base, hit, err = cache.Get(img.Program, cfg.Rete)
	} else {
		base, err = engine.CompileProgram(img.Program, cfg.Rete)
	}
	if err != nil {
		return nil, false, fmt.Errorf("snapshot: compiling base image: %w", err)
	}
	if base.Hash != img.BaseHash {
		return nil, hit, fmt.Errorf("snapshot: base image hash mismatch: compiled %s, snapshot recorded %s (structural options differ?)",
			base.Hash, img.BaseHash)
	}
	if img.TopoSig != nil {
		if got := base.Top.Signature(); got != *img.TopoSig {
			return nil, hit, fmt.Errorf("snapshot: topology mismatch on restore: compiled [%s], snapshot recorded [%s] — refusing to restore state against a divergent image",
				got, *img.TopoSig)
		}
	}

	e := engine.NewFromImage(base, cfg)
	if err := restoreOntoImage(e, img); err != nil {
		e.Close()
		return nil, hit, err
	}
	return e, hit, nil
}

// restoreOntoImage rebuilds a snapshot's session-private state on an engine
// freshly stamped out of the snapshot's base image.
func restoreOntoImage(e *engine.Engine, img *Image) error {
	// Re-impose the recorded schema order before anything else touches the
	// registry: field indices are positional, and runtime firings extend
	// schemas in firing order, which the shared image cannot know about.
	for _, rec := range img.Schema {
		attrs := make([]value.Sym, len(rec.Attrs))
		for i, a := range rec.Attrs {
			attrs[i] = e.Tab.Intern(a)
		}
		e.Reg.Declare(e.Tab.Intern(rec.Class), attrs...)
	}
	// Splice the session's runtime chunks onto a private suffix. Working
	// memory is still empty here, so the §5.2 state update is a no-op and
	// the chunks pick up their state from RebuildMatchState below.
	for i, src := range img.Chunks {
		prog, perr := ops5.Parse(src, e.Tab)
		if perr != nil {
			return fmt.Errorf("snapshot: parsing chunk %d: %w", i, perr)
		}
		for _, p := range prog.Productions {
			if _, aerr := e.AddProductionRuntime(p); aerr != nil {
				return fmt.Errorf("snapshot: restoring chunk %d: %w", i, aerr)
			}
		}
	}
	return restoreState(e, img)
}

// restoreState re-inserts the recorded wmes with their original
// identities, rebuilds all match state by serial replay, then re-marks
// refraction and counters.
func restoreState(e *engine.Engine, img *Image) error {
	for _, wr := range img.WMEs {
		w, err := decodeWME(e.Tab, wr)
		if err != nil {
			return err
		}
		if err := e.WM.Insert(w); err != nil {
			return fmt.Errorf("snapshot: restoring wme %d: %w", wr.ID, err)
		}
	}
	e.WM.SetCounters(img.NextID, img.NextTag)
	e.RebuildMatchState()
	if err := e.CS.RestoreFired(img.Fired); err != nil {
		return err
	}
	e.SetHalted(img.Halted)
	e.SetGensym(img.Gensym)
	e.Fired = img.FireCount
	e.BadDeltas = img.BadDeltas
	return nil
}

// DeltaRec is one recorded working-memory change, replayable against a
// restored engine: adds carry their assigned identity so the replayed
// trajectory is tag-identical to the original, removes are resolved
// against the target memory by ID.
type DeltaRec struct {
	Op  string `json:"op"` // "add" | "remove"
	WME WMERec `json:"wme"`
}

// EncodeDeltas records a delta batch in portable form.
func EncodeDeltas(tab *value.Table, ds []wme.Delta) []DeltaRec {
	out := make([]DeltaRec, len(ds))
	for i, d := range ds {
		out[i] = DeltaRec{Op: d.Op.String(), WME: encodeWME(tab, d.WME)}
	}
	return out
}

// DecodeDeltas rebuilds a delta batch against wm: adds become fresh wme
// objects with their recorded identities (raising wm's allocation
// counters past them), removes resolve to the live object in wm so
// Delete's pointer-based index update stays coherent.
func DecodeDeltas(tab *value.Table, wm *wme.Memory, recs []DeltaRec) ([]wme.Delta, error) {
	out := make([]wme.Delta, len(recs))
	for i, r := range recs {
		switch r.Op {
		case "add":
			w, err := decodeWME(tab, r.WME)
			if err != nil {
				return nil, err
			}
			wm.EnsureCounters(w.ID, w.TimeTag)
			out[i] = wme.Delta{Op: wme.Add, WME: w}
		case "remove":
			w := wm.Get(r.WME.ID)
			if w == nil {
				return nil, fmt.Errorf("snapshot: remove of unknown wme %d", r.WME.ID)
			}
			out[i] = wme.Delta{Op: wme.Remove, WME: w}
		default:
			return nil, fmt.Errorf("snapshot: unknown delta op %q", r.Op)
		}
	}
	return out, nil
}
