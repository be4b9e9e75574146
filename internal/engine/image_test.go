package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"soarpsme/internal/ops5"
	"soarpsme/internal/rete"
)

const imageProg = `
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

const imageChunk = `
(p chunk-red
  (block ^name <b> ^color red)
  -(block ^on <b>)
  (hand ^state free)
  -->
  (make goal ^obj <b>))`

// csFingerprint is a canonical string of the conflict set: production
// names with their instantiations' time tags, sorted.
func csFingerprint(e *Engine) string {
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

func TestImageEquivalentToLoadProgram(t *testing.T) {
	solo := New(DefaultConfig())
	if err := solo.LoadProgram(imageProg); err != nil {
		t.Fatal(err)
	}

	img, err := CompileProgram(imageProg, DefaultConfig().Rete)
	if err != nil {
		t.Fatal(err)
	}
	if img.Productions() != 1 {
		t.Fatalf("image has %d productions, want 1", img.Productions())
	}
	e := NewFromImage(img, DefaultConfig())
	if e.CS.Len() != 0 {
		t.Fatalf("CS populated before startup: %d", e.CS.Len())
	}
	if err := e.RunStartup(); err != nil {
		t.Fatal(err)
	}
	if got, want := csFingerprint(e), csFingerprint(solo); got != want {
		t.Fatalf("image-backed session diverges from LoadProgram:\n got %q\nwant %q", got, want)
	}
}

func TestProgramHashSessionOptionsExcluded(t *testing.T) {
	base := DefaultConfig().Rete
	a := base
	a.Unlink = !base.Unlink
	if ProgramHash(imageProg, base) != ProgramHash(imageProg, a) {
		t.Fatal("Unlink (session-level) changed the image hash")
	}
	b := base
	b.ShareBeta = !base.ShareBeta
	if ProgramHash(imageProg, base) == ProgramHash(imageProg, b) {
		t.Fatal("ShareBeta (structural) did not change the image hash")
	}
	if ProgramHash(imageProg, base) == ProgramHash(imageProg+"\n(p x (hand) --> (make o))", base) {
		t.Fatal("source change did not change the image hash")
	}
	// Literal hashes from the last build in which the bilinear depth was
	// an option (default 16): the images and data directories it wrote
	// must keep their keys.
	auto := base
	auto.Organization = rete.BilinearAuto
	for _, c := range []struct {
		opts rete.Options
		want string
	}{
		{base, "aaed31851e5dc9a2543e7fbc3c81e5e2cab3bfb915d8682e911e1549417375a1"},
		{auto, "b0e5a7deff61052c1eed4640c9097a78c3101a3283cc259e97b2592b52c4181c"},
	} {
		if got := ProgramHash(imageProg, c.opts); got != c.want {
			t.Fatalf("org %v: image hash %s, want %s", c.opts.Organization, got, c.want)
		}
	}
}

// TestSharedImageConcurrentSessions is the topology-split race test: many
// sessions stamp out and run against ONE compiled image while one of them
// splices a chunk onto its private copy-on-write suffix. Run under -race
// this catches any cross-session write into the shared prefix; the
// explicit checks assert the prefix renders bit-identical before and
// after, the chunk stays invisible to sibling sessions, and every
// session's conflict set is byte-identical to a solo serial run.
func TestSharedImageConcurrentSessions(t *testing.T) {
	cfg := DefaultConfig()
	img, err := CompileProgram(imageProg, cfg.Rete)
	if err != nil {
		t.Fatal(err)
	}
	sharedBefore := NewFromImage(img, cfg).NW.FormatNetwork()
	sigBefore := img.Top.Signature()

	// Solo references, computed serially.
	solo := New(cfg)
	if err := solo.LoadProgram(imageProg); err != nil {
		t.Fatal(err)
	}
	wantBase := csFingerprint(solo)
	chunkAST, err := ops5.ParseProduction(imageChunk, solo.Tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solo.AddProductionRuntime(chunkAST); err != nil {
		t.Fatal(err)
	}
	wantChunked := csFingerprint(solo)

	const sessions = 8
	got := make([]string, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := NewFromImage(img, cfg)
			if err := e.RunStartup(); err != nil {
				errs[i] = err
				return
			}
			if i == 0 {
				// This session alone chunks, onto its own unshared suffix,
				// while the others are mid-create/match.
				ast, err := ops5.ParseProduction(imageChunk, e.Tab)
				if err != nil {
					errs[i] = err
					return
				}
				if _, err := e.AddProductionRuntime(ast); err != nil {
					errs[i] = err
					return
				}
			}
			got[i] = csFingerprint(e)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if got[0] != wantChunked {
		t.Fatalf("chunking session diverges from solo chunked run:\n got %q\nwant %q", got[0], wantChunked)
	}
	for i := 1; i < sessions; i++ {
		if got[i] != wantBase {
			t.Fatalf("session %d diverges from solo run:\n got %q\nwant %q", i, got[i], wantBase)
		}
	}

	// The shared prefix must be untouched by the chunk splice: same
	// signature, and a fresh session renders the identical tree (including
	// reference counts — chunk reuse of shared nodes must not bump them).
	if sig := img.Top.Signature(); sig != sigBefore {
		t.Fatalf("shared topology signature changed: %v -> %v", sigBefore, sig)
	}
	if after := NewFromImage(img, cfg).NW.FormatNetwork(); after != sharedBefore {
		t.Fatalf("shared prefix changed after chunking:\nbefore:\n%s\nafter:\n%s", sharedBefore, after)
	}
}

func TestSuffixExcise(t *testing.T) {
	cfg := DefaultConfig()
	img, err := CompileProgram(imageProg, cfg.Rete)
	if err != nil {
		t.Fatal(err)
	}
	e := NewFromImage(img, cfg)
	if err := e.RunStartup(); err != nil {
		t.Fatal(err)
	}
	ast, err := ops5.ParseProduction(imageChunk, e.Tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddProductionRuntime(ast); err != nil {
		t.Fatal(err)
	}
	if len(e.NW.OwnProductions()) != 1 {
		t.Fatalf("own-layer productions = %d, want 1", len(e.NW.OwnProductions()))
	}
	// Excising the private chunk works and restores the base conflict set.
	base := New(cfg)
	if err := base.LoadProgram(imageProg); err != nil {
		t.Fatal(err)
	}
	if err := e.ExciseProduction("chunk-red"); err != nil {
		t.Fatal(err)
	}
	if got, want := csFingerprint(e), csFingerprint(base); got != want {
		t.Fatalf("after suffix excise:\n got %q\nwant %q", got, want)
	}
	// Excising a production owned by the shared image must refuse: other
	// sessions depend on those nodes.
	if err := e.ExciseProduction("graspable"); err == nil {
		t.Fatal("excising a frozen base production succeeded")
	} else if !strings.Contains(err.Error(), "frozen") {
		t.Fatalf("unexpected excise error: %v", err)
	}
}

func TestImageCache(t *testing.T) {
	c := NewImageCache()
	opts := DefaultConfig().Rete

	img1, hit, err := c.Get(imageProg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first Get reported a hit")
	}
	img2, hit, err := c.Get(imageProg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || img2 != img1 {
		t.Fatalf("second Get: hit=%v same=%v", hit, img2 == img1)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Live != 1 || st.Sessions != 2 {
		t.Fatalf("stats after two gets: %+v", st)
	}

	// Concurrent first-use of a new program compiles exactly once.
	prog2 := imageProg + "\n(p extra (hand ^state free) --> (make o))"
	const n = 8
	var wg sync.WaitGroup
	imgs := make([]*ProgramImage, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			imgs[i], _, _ = c.Get(prog2, opts)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if imgs[i] != imgs[0] || imgs[i] == nil {
			t.Fatalf("concurrent Gets returned different images")
		}
	}
	st = c.Stats()
	if st.Misses != 2 {
		t.Fatalf("concurrent first-use compiled %d times, want 1 (misses=%d)", st.Misses-1, st.Misses)
	}

	// Release keeps the image warm: refs drop, entry stays.
	c.Release(img1)
	c.Release(img2)
	st = c.Stats()
	if st.Live != 2 {
		t.Fatalf("released images were evicted: live=%d, want 2", st.Live)
	}
	if _, hit, _ := c.Get(imageProg, opts); !hit {
		t.Fatal("zero-ref image was not kept warm")
	}

	// Compile errors are returned but not cached.
	if _, _, err := c.Get("(p broken", opts); err == nil {
		t.Fatal("bad program compiled")
	}
	if st := c.Stats(); st.Live != 2 {
		t.Fatalf("failed compile left a cache entry: live=%d", st.Live)
	}
}
