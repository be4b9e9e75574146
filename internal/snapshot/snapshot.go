// Package snapshot serializes full engine session state — what an engine is:
// its image's program, its own layer's productions, working memory, which
// instantiations have fired, and counters — into a versioned, checksummed
// image that any node can restore by rebuilding match state through the
// engine's serial-replay machinery (the paper's run-time state-update
// algorithm used as a migration primitive). Token memories and conflict-set
// contents are NOT serialized: they are pure functions of (productions, WM)
// and are re-derived on restore, which keeps images small and makes the
// format independent of the Rete implementation's in-memory layout.
package snapshot

import (
	"encoding/json"
	"fmt"
	"hash/crc32"

	"soarpsme/internal/conflict"
	"soarpsme/internal/engine"
	"soarpsme/internal/ops5"
	"soarpsme/internal/rete"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// formatVersion is the image format version; Decode rejects images whose
// version it does not understand. Version 2 added the compiled-image fields
// (BaseHash, Chunks, Schema, TopoSig) every snapshot now carries; an image
// without them — version 1, or a version-2 "standalone" one — is still
// readable and restores as a program with nothing in its own layer.
const formatVersion = 2

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
		Version: formatVersion,
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
	if env.Version < 1 || env.Version > formatVersion {
		return fmt.Errorf("snapshot: format version %d, want 1..%d", env.Version, formatVersion)
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
	// Program is the exact source of the engine's compiled image: its hash
	// is the image-cache key, so a restoring node with the image already
	// compiled pays no compile at all. It is empty for an engine made by
	// engine.New, whose every production is in Chunks. The standalone images
	// of earlier builds carry generated source here (literalizes, strategy,
	// every production) and none of the four fields below; restore compiles
	// it like any other program.
	Program string `json:"program"`

	// BaseHash is the canonical hash of Program under the exporting engine's
	// structural options. A restore recompiles (or cache-hits) the base image
	// and fails loudly if the hash or topology signature diverges.
	BaseHash string `json:"baseHash,omitempty"`
	// Chunks holds the OPS5 source of every production in the engine's own
	// layer — what it loaded or spliced on at run time — in addition order.
	Chunks []string `json:"chunks,omitempty"`
	// Schema records every class's attribute list in registry order. Field
	// indices are positional and runtime firings may have extended schemas
	// in firing order, so restore re-imposes this exact order before any
	// wme is decoded.
	Schema []SchemaRec `json:"schema,omitempty"`
	// TopoSig is the base topology's shape signature at export; restore
	// verifies the recompiled image matches it.
	TopoSig *rete.Sig `json:"topoSig,omitempty"`
	// Strategy is the engine's conflict-resolution strategy when it is not
	// its image's (an engine.New engine that loaded an MEA program). A served
	// session's strategy is always its image's, so it never writes the key.
	Strategy string `json:"strategy,omitempty"`

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

// Export captures the engine's state as an Image. The engine must be at
// quiescence (between cycles); the serving layer guarantees this by
// exporting under the session's turn.
func Export(e *engine.Engine) *Image {
	base := e.Image()
	sig := base.Top.Signature()
	img := &Image{
		Program:   base.Source,
		BaseHash:  base.Hash,
		TopoSig:   &sig,
		Fired:     e.CS.ExportFired(),
		Halted:    e.Halted(),
		Gensym:    e.Gensym(),
		FireCount: e.Fired,
		BadDeltas: e.BadDeltas,
		Cycles:    int(e.Cycles()),
	}
	if e.Strategy() != base.Strategy {
		img.Strategy = e.Strategy().String()
	}
	for _, p := range e.NW.OwnProductions() {
		img.Chunks = append(img.Chunks, ops5.Format(p.AST, e.Tab))
	}
	for _, cls := range e.Reg.Classes() {
		rec := SchemaRec{Class: e.Tab.Name(cls)}
		for _, a := range e.Reg.Get(cls, false).Attrs() {
			rec.Attrs = append(rec.Attrs, e.Tab.Name(a))
		}
		img.Schema = append(img.Schema, rec)
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

// RestoreWithCache builds a fresh engine from an image, byte-identical to
// the exporting engine: same conflict set, same fingerprints, same
// counters. It resolves the snapshot's base image through cache, which may
// be nil to force a private compile. cacheHit
// reports whether the base topology came out of the cache without a
// compile. A recompiled base whose program hash or topology signature
// diverges from the snapshot's record fails loudly: restoring state
// vectors against a different graph would be silent corruption.
func RestoreWithCache(img *Image, cfg engine.Config, cache *engine.ImageCache) (*engine.Engine, bool, error) {
	if img == nil {
		return nil, false, fmt.Errorf("snapshot: no engine image to restore")
	}
	// The empty program's image is never shared: an image carries the symbol
	// table and class registry, and an engine.New engine fills them with its
	// own program's classes.
	shared := cache != nil && img.Program != ""
	var (
		base *engine.ProgramImage
		hit  bool
		err  error
	)
	if shared {
		base, hit, err = cache.Get(img.Program, cfg.Rete)
	} else {
		base, err = engine.CompileProgram(img.Program, cfg.Rete)
	}
	if err != nil {
		return nil, false, fmt.Errorf("snapshot: compiling base image: %w", err)
	}
	e, err := restoreOnto(base, img, cfg)
	if err != nil && shared {
		cache.Release(base)
	}
	return e, hit, err
}

// restoreOnto checks base against what the snapshot recorded of it, stamps
// an engine out of it and rebuilds the snapshot's session-private state.
func restoreOnto(base *engine.ProgramImage, img *Image, cfg engine.Config) (_ *engine.Engine, err error) {
	if img.BaseHash != "" && base.Hash != img.BaseHash {
		return nil, fmt.Errorf("snapshot: base image hash mismatch: compiled %s, snapshot recorded %s (structural options differ?)",
			base.Hash, img.BaseHash)
	}
	if got := base.Top.Signature(); img.TopoSig != nil && got != *img.TopoSig {
		return nil, fmt.Errorf("snapshot: topology mismatch on restore: compiled [%s], snapshot recorded [%s] — refusing to restore state against a divergent image",
			got, *img.TopoSig)
	}
	e := engine.NewFromImage(base, cfg)
	defer func() {
		if err != nil {
			e.Close()
		}
	}()
	if img.Strategy != "" {
		e.SetStrategy(conflict.ParseStrategy(img.Strategy))
	}
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
	// Compile the own layer's productions. Working memory is still empty
	// here, so the §5.2 state update is a no-op and they pick up their state
	// from RebuildMatchState below.
	for i, src := range img.Chunks {
		p, perr := ops5.ParseProduction(src, e.Tab)
		if perr != nil {
			return nil, fmt.Errorf("snapshot: parsing chunk %d: %w", i, perr)
		}
		if _, aerr := e.AddProductionRuntime(p); aerr != nil {
			return nil, fmt.Errorf("snapshot: restoring chunk %d: %w", i, aerr)
		}
	}
	// Re-insert the recorded wmes with their original identities, rebuild all
	// match state by serial replay, then re-mark refraction and counters.
	for _, wr := range img.WMEs {
		w, derr := decodeWME(e.Tab, wr)
		if derr != nil {
			return nil, derr
		}
		if ierr := e.WM.Insert(w); ierr != nil {
			return nil, fmt.Errorf("snapshot: restoring wme %d: %w", wr.ID, ierr)
		}
	}
	e.WM.SetCounters(img.NextID, img.NextTag)
	e.RebuildMatchState()
	if ferr := e.CS.RestoreFired(img.Fired); ferr != nil {
		return nil, ferr
	}
	e.SetHalted(img.Halted)
	e.SetGensym(img.Gensym)
	e.Fired = img.FireCount
	e.BadDeltas = img.BadDeltas
	return e, nil
}
