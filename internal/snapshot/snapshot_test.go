package snapshot_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/serve"
	"soarpsme/internal/snapshot"
)

// refractionProg exercises the state a snapshot must carry beyond working
// memory: refraction (the `watch` production stays matched across cycles
// and must not re-fire after a restore), gensym, and halt. The bar-quoted
// class name exercises the printer's bar-quoting on the generated
// literalize line.
const refractionProg = `
(literalize fib i a b)
(literalize limit n)
(literalize |odd name| v)

(startup
  (make limit ^n 12)
  (make |odd name| ^v watched)
  (make fib ^i 1 ^a 0 ^b 1))

(p watch
  (|odd name| ^v watched)
  -->
  (make |odd name| ^v (gensym)))

(p step
  (limit ^n <n>)
  { <f> (fib ^i { <i> < <n> } ^a <a> ^b <b>) }
  -->
  (modify <f> ^i (compute <i> + 1) ^a <b> ^b (compute <a> + <b>)))

(p done
  (limit ^n <n>)
  (fib ^i <n> ^b <v>)
  -->
  (halt))
`

// csText renders an engine's match state as text: "wm=W cs=N " then each
// instantiation as production name plus its CE-ordered wme time tags,
// sorted. It is the form serve.Fingerprint had before it became a digest,
// which the parent fixture below pins.
func csText(e *engine.Engine) string {
	insts := e.CS.All()
	lines := make([]string, 0, len(insts))
	for _, in := range insts {
		b := append([]byte(in.Prod.Name), '(')
		for i, w := range in.WMEs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, w.TimeTag, 10)
		}
		lines = append(lines, string(append(b, ')')))
	}
	slices.Sort(lines)
	return fmt.Sprintf("wm=%d cs=%d %s", e.WM.Len(), len(insts), strings.Join(lines, " "))
}

// runSteps advances n recognize-act steps, collecting per-step conflict
// sets as text (stopping early at quiescence or halt).
func runSteps(t *testing.T, e *engine.Engine, n int) []string {
	t.Helper()
	var fps []string
	for i := 0; i < n && !e.Halted(); i++ {
		fired, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !fired {
			break
		}
		fps = append(fps, csText(e))
	}
	return fps
}

// TestOPS5RoundTrip is the recognize-act leg of the round-trip property:
// an unbroken run and a run snapshotted (through the full encode/decode
// wire form) mid-flight must fire the same productions and end in the
// same state. A lost refraction entry would make the restored run re-fire
// `watch` and diverge immediately.
func TestOPS5RoundTrip(t *testing.T) {
	mk := func() *engine.Engine {
		e := engine.New(engine.DefaultConfig())
		if err := e.LoadProgram(refractionProg); err != nil {
			t.Fatal(err)
		}
		return e
	}
	ref := mk()
	refFps := runSteps(t, ref, 100)
	if !ref.Halted() {
		t.Fatal("reference run did not halt")
	}

	for _, k := range []int{1, 5, len(refFps) - 1} {
		e1 := mk()
		fps := runSteps(t, e1, k)
		data, err := snapshot.Export(e1).Encode()
		if err != nil {
			t.Fatal(err)
		}
		img, err := snapshot.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		e2, _, err := snapshot.RestoreWithCache(img, engine.DefaultConfig(), nil)
		if err != nil {
			t.Fatalf("restore at step %d: %v", k, err)
		}
		if got, want := serve.Fingerprint(e2), serve.Fingerprint(e1); got != want {
			t.Fatalf("restore at step %d: fingerprint\n got %s\nwant %s", k, got, want)
		}
		if err := e2.AuditInvariants(); err != nil {
			t.Fatalf("restore at step %d: audit: %v", k, err)
		}
		if e2.Gensym() != e1.Gensym() || e2.Fired != e1.Fired {
			t.Fatalf("restore at step %d: counters gensym=%d/%d fired=%d/%d",
				k, e2.Gensym(), e1.Gensym(), e2.Fired, e1.Fired)
		}
		fps = append(fps, runSteps(t, e2, 100)...)
		if !e2.Halted() {
			t.Fatalf("restored run (snapshot at step %d) did not halt", k)
		}
		if len(fps) != len(refFps) {
			t.Fatalf("snapshot at step %d: %d steps, reference ran %d", k, len(fps), len(refFps))
		}
		for i := range fps {
			if fps[i] != refFps[i] {
				t.Fatalf("snapshot at step %d: step %d fingerprint diverged\n got %s\nwant %s",
					k, i, fps[i], refFps[i])
			}
		}
	}
}

// TestEnvelopeRejectsCorruption pins the loud-failure contract: a flipped
// payload byte, a truncated file, and a wrong format version must all be
// rejected — never restored silently.
func TestEnvelopeRejectsCorruption(t *testing.T) {
	e := engine.New(engine.DefaultConfig())
	if err := e.LoadProgram(refractionProg); err != nil {
		t.Fatal(err)
	}
	data, err := snapshot.Export(e).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Decode(data); err != nil {
		t.Fatalf("clean image rejected: %v", err)
	}

	// Flip one byte inside the payload (find a safe spot: a digit in the
	// payload body, so the envelope JSON still parses).
	i := bytes.Index(data, []byte(`"wmes"`))
	if i < 0 {
		t.Fatal("no wmes field in encoded image")
	}
	bad := append([]byte(nil), data...)
	bad[i+10] ^= 0x01
	if _, err := snapshot.Decode(bad); err == nil {
		t.Fatal("corrupted image decoded without error")
	} else if !strings.Contains(err.Error(), "checksum") && !strings.Contains(err.Error(), "payload") {
		t.Fatalf("corrupted image: unexpected error %v", err)
	}

	if _, err := snapshot.Decode(data[:len(data)/2]); err == nil {
		t.Fatal("truncated image decoded without error")
	}

	futur := bytes.Replace(data,
		[]byte(fmt.Sprintf(`"version":%d`, snapshot.FormatVersion)), []byte(`"version":99`), 1)
	if _, err := snapshot.Decode(futur); err == nil {
		t.Fatal("future-version image decoded without error")
	} else if !strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version image: unexpected error %v", err)
	}
}

// roundTrip exports e through the full wire form and restores it.
func roundTrip(t *testing.T, e *engine.Engine) (*snapshot.Image, *engine.Engine) {
	t.Helper()
	data, err := snapshot.Export(e).Encode()
	if err != nil {
		t.Fatal(err)
	}
	img, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := snapshot.RestoreWithCache(img, engine.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return img, back
}

// TestExportRestoreExportIsFixedPoint: a restored engine reproduces every
// class schema (field indices included) and every production, bar-quoted
// names included — so exporting it again yields the snapshot it came from.
func TestExportRestoreExportIsFixedPoint(t *testing.T) {
	e := engine.New(engine.DefaultConfig())
	if err := e.LoadProgram(refractionProg); err != nil {
		t.Fatal(err)
	}
	runSteps(t, e, 100)
	img, back := roundTrip(t, e)
	if len(img.Chunks) != 3 || img.Program != "" || len(img.Fired) == 0 {
		t.Fatalf("an engine.New engine exported program %q, %d own productions and %d fired entries, want none, 3 and some",
			img.Program, len(img.Chunks), len(img.Fired))
	}
	again := snapshot.Export(back)
	again.Cycles = img.Cycles // informational: the restore's replay is not a cycle
	want, _ := img.Encode()
	got, _ := again.Encode()
	if !bytes.Equal(got, want) {
		t.Fatalf("Export(Restore(Export(e))) is not the snapshot it came from:\n got %s\nwant %s", got, want)
	}
}

const meaProg = `
(literalize |goal item| id want)
(literalize fact v)
(strategy mea)
(startup
  (make |goal item| ^id one ^want a)
  (make |goal item| ^id two ^want b)
  (make |goal item| ^id three ^want c)
  (make fact ^v c)
  (make fact ^v b)
  (make fact ^v a))
(p |match goal|
  (|goal item| ^id <g> ^want <w>)
  (fact ^v <w>)
  -->
  (make done ^g <g> ^sym (gensym)))
(p |one done|
  (done ^g one)
  -->
  (halt))
`

// TestStrategyRoundTrips: MEA fires meaProg's goals newest first, LEX the
// one matched to the newest fact first, so a restore that lost the strategy
// diverges on its first step. An engine.New engine's strategy is not its
// (empty) image's and travels in the snapshot; an image-backed engine's is
// its image's, and its export — a served session's — has no strategy key.
func TestStrategyRoundTrips(t *testing.T) {
	owned := engine.New(engine.DefaultConfig())
	if err := owned.LoadProgram(meaProg); err != nil {
		t.Fatal(err)
	}
	base, err := engine.CompileProgram(meaProg, engine.DefaultConfig().Rete)
	if err != nil {
		t.Fatal(err)
	}
	imaged := engine.NewFromImage(base, engine.DefaultConfig())
	if err := imaged.RunStartup(); err != nil {
		t.Fatal(err)
	}
	lex, err := engine.CompileProgram(imgProg, engine.DefaultConfig().Rete)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*engine.Engine{"owned": owned, "imaged": imaged, "lex": engine.NewFromImage(lex, engine.DefaultConfig())} {
		runSteps(t, e, 1)
		data, err := snapshot.Export(e).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if has, want := bytes.Contains(data, []byte(`"strategy"`)), name == "owned"; has != want {
			t.Fatalf("%s: snapshot has a strategy key: %v, want %v\n%s", name, has, want, data)
		}
		_, back := roundTrip(t, e)
		if back.Strategy() != e.Strategy() {
			t.Fatalf("%s: restored strategy %v, want %v", name, back.Strategy(), e.Strategy())
		}
		want, got := runSteps(t, e, 10), runSteps(t, back, 10)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s: remaining run after restore\n got %q\nwant %q", name, got, want)
		}
	}
}

// TestParentStandaloneFixture restores testdata/standalone-parent.json: a
// snapshot in the standalone form — generated program source, no base hash,
// no chunks — written by the last build that had it (commit b3d0519), from
// an engine.New engine that loaded the fixture's "source" (meaProg with the
// startup section laid out differently) and fired once; the program that
// wrote it is kept beside it as standalone-parent.gen.txt. It must restore, as
// an image with nothing in its own layer, to the recorded fingerprint and
// strategy and run the recorded remaining steps; and what this build exports
// of it must restore to the same.
func TestParentStandaloneFixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/standalone-parent.json")
	if err != nil {
		t.Fatal(err)
	}
	var fx struct {
		Image       string   `json:"image"`
		Fingerprint string   `json:"fingerprint"`
		Strategy    string   `json:"strategy"`
		Remaining   []string `json:"remaining"`
	}
	if err := json.Unmarshal(raw, &fx); err != nil {
		t.Fatal(err)
	}
	img, err := snapshot.Decode([]byte(fx.Image))
	if err != nil {
		t.Fatal(err)
	}
	if img.BaseHash != "" || img.Chunks != nil || img.Schema != nil || img.Strategy != "" {
		t.Fatalf("fixture is not a standalone image: %+v", img)
	}
	e, _, err := snapshot.RestoreWithCache(img, engine.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(e.NW.OwnProductions()); n != 0 {
		t.Fatalf("standalone image restored with %d productions in the own layer, want 0", n)
	}
	reexported, again := roundTrip(t, e)
	if reexported.BaseHash == "" || reexported.Program != img.Program {
		t.Fatalf("re-export of the restored fixture: baseHash %q program %q", reexported.BaseHash, reexported.Program)
	}
	for name, e := range map[string]*engine.Engine{"fixture": e, "re-exported": again} {
		if got := csText(e); got != fx.Fingerprint {
			t.Fatalf("%s: conflict set\n got %s\nwant %s", name, got, fx.Fingerprint)
		}
		if got := e.Strategy().String(); got != fx.Strategy {
			t.Fatalf("%s: strategy %s, want %s", name, got, fx.Strategy)
		}
		if err := e.AuditInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := runSteps(t, e, 100); strings.Join(got, "\n") != strings.Join(fx.Remaining, "\n") || !e.Halted() {
			t.Fatalf("%s: remaining run (halted %v)\n got %q\nwant %q", name, e.Halted(), got, fx.Remaining)
		}
	}
}
