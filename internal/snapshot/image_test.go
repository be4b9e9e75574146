package snapshot_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/ops5"
	"soarpsme/internal/rete"
	"soarpsme/internal/snapshot"
)

const imgProg = `
(literalize block name color on)
(literalize hand state)
(startup (make block ^name b1 ^color blue)
         (make block ^name b2 ^color red)
         (make hand ^state free))
(p graspable
  (block ^name <b> ^color blue)
  -(block ^on <b>)
  (hand ^state free)
  -->
  (make goal ^obj <b>))
`

const imgChunk = `
(p chunk-red
  (block ^name <b> ^color red)
  -(block ^on <b>)
  (hand ^state free)
  -->
  (make goal ^obj <b>))`

func csPrint(e *engine.Engine) string {
	insts := e.CS.All()
	lines := make([]string, 0, len(insts))
	for _, in := range insts {
		var b strings.Builder
		b.WriteString(in.Prod.Name)
		for _, w := range in.WMEs {
			fmt.Fprintf(&b, " %d", w.TimeTag)
		}
		lines = append(lines, b.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// imageSession builds an image-backed engine with one runtime chunk and a
// fired cycle, so the export carries a private suffix, a runtime-extended
// schema (goal is never literalized), and refraction state.
func imageSession(t testing.TB, cfg engine.Config) (*engine.ProgramImage, *engine.Engine) {
	t.Helper()
	img, err := engine.CompileProgram(imgProg, cfg.Rete)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.NewFromImage(img, cfg)
	if err := e.RunStartup(); err != nil {
		t.Fatal(err)
	}
	ast, err := ops5.ParseProduction(imgChunk, e.Tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddProductionRuntime(ast); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunOPS5(); err != nil {
		t.Fatal(err)
	}
	return img, e
}

func TestImageBackedSnapshotRoundTrip(t *testing.T) {
	cfg := engine.DefaultConfig()
	img, e := imageSession(t, cfg)

	exp := snapshot.Export(e)
	if exp.BaseHash != img.Hash {
		t.Fatalf("BaseHash %q, want image hash %q", exp.BaseHash, img.Hash)
	}
	if len(exp.Chunks) != 1 || !strings.Contains(exp.Chunks[0], "chunk-red") {
		t.Fatalf("Chunks = %q, want the one runtime chunk", exp.Chunks)
	}
	if exp.TopoSig == nil {
		t.Fatal("no topology signature recorded")
	}
	if len(exp.Schema) == 0 {
		t.Fatal("no schema section recorded")
	}
	foundGoal := false
	for _, s := range exp.Schema {
		if s.Class == "goal" {
			foundGoal = true
		}
	}
	if !foundGoal {
		t.Fatalf("runtime-extended class goal missing from schema: %+v", exp.Schema)
	}

	data, err := exp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}

	// First restore through an empty cache compiles; the second hits.
	cache := engine.NewImageCache()
	r1, hit, err := snapshot.RestoreWithCache(dec, cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first restore reported a warm cache")
	}
	r2, hit, err := snapshot.RestoreWithCache(dec, cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second restore missed the cache")
	}
	for i, r := range []*engine.Engine{r1, r2} {
		if got, want := csPrint(r), csPrint(e); got != want {
			t.Fatalf("restore %d conflict set diverges:\n got %q\nwant %q", i+1, got, want)
		}
		if got, want := len(r.WM.All()), len(e.WM.All()); got != want {
			t.Fatalf("restore %d WM size %d, want %d", i+1, got, want)
		}
		if r.NW.Lookup("chunk-red") == nil {
			t.Fatalf("restore %d lost the runtime chunk", i+1)
		}
		if r.Image() == nil {
			t.Fatalf("restore %d is not image-backed", i+1)
		}
	}
	// A restore without a cache (a private compile) must work identically.
	r3, _, err := snapshot.RestoreWithCache(dec, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := csPrint(r3), csPrint(e); got != want {
		t.Fatalf("cacheless restore diverges:\n got %q\nwant %q", got, want)
	}
}

func TestImageRestoreDivergenceFailsLoudly(t *testing.T) {
	cfg := engine.DefaultConfig()
	_, e := imageSession(t, cfg)

	exp := snapshot.Export(e)
	bad := *exp
	bad.TopoSig = &rete.Sig{Nodes: 1, TwoInput: 1, Prods: 1}
	if _, _, err := snapshot.RestoreWithCache(&bad, cfg, nil); err == nil {
		t.Fatal("restore against a divergent topology succeeded")
	} else if !strings.Contains(err.Error(), "topology mismatch") {
		t.Fatalf("unexpected divergence error: %v", err)
	}

	bad = *exp
	bad.BaseHash = "deadbeef"
	if _, _, err := snapshot.RestoreWithCache(&bad, cfg, nil); err == nil {
		t.Fatal("restore against a mismatched base hash succeeded")
	} else if !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("unexpected hash error: %v", err)
	}
}

// TestRestoreRejectsSwappedSchema: a snapshot whose recorded schema puts a
// class's attributes where the image's schema does not is refused, with or
// without an image cache, rather than restored with its wmes read under
// the image's order.
func TestRestoreRejectsSwappedSchema(t *testing.T) {
	cfg := engine.DefaultConfig()
	img, err := engine.CompileProgram("(literalize fact v w)\n(startup (make fact ^v a ^w b))", cfg.Rete)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.NewFromImage(img, cfg)
	if err := e.RunStartup(); err != nil {
		t.Fatal(err)
	}
	exp := snapshot.Export(e)
	var swapped bool
	for i, rec := range exp.Schema {
		if rec.Class == "fact" {
			exp.Schema[i].Attrs = []string{"w", "v"} // the image now says (fact ^w a ^v b)
			swapped = true
		}
	}
	if !swapped {
		t.Fatalf("no schema recorded for fact: %+v", exp.Schema)
	}
	for _, cache := range []*engine.ImageCache{nil, engine.NewImageCache()} {
		back, _, err := snapshot.RestoreWithCache(exp, cfg, cache)
		if err == nil {
			var wm []string
			for _, w := range back.WM.All() {
				wm = append(wm, w.Format(back.Tab, back.Reg))
			}
			t.Fatalf("cache %t: a swapped schema restored silently as %v", cache != nil, wm)
		}
		if !strings.Contains(err.Error(), "class fact") {
			t.Fatalf("cache %t: restore error %q does not name the class", cache != nil, err)
		}
	}
}
