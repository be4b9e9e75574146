package snapshot_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"soarpsme/internal/conflict"
	"soarpsme/internal/engine"
	"soarpsme/internal/ops5"
	"soarpsme/internal/rete"
	"soarpsme/internal/snapshot"
	"soarpsme/internal/value"
)

// wrongPayloads are well-formed snapshots that say something wrong: what each
// does to a good image, and what the restore's error must mention ("" when
// the image still restores). They are FuzzRestore's seed corpus.
var wrongPayloads = []struct {
	name    string
	mutate  func(*snapshot.Image)
	wantErr string
}{
	{"good", func(*snapshot.Image) {}, ""},
	{"empty object", func(img *snapshot.Image) { *img = snapshot.Image{} }, ""},
	{"unknown class", func(img *snapshot.Image) { img.WMEs[0].Class = "no-such-class" }, "no live instantiation"},
	{"fewer schema attrs than fields", func(img *snapshot.Image) {
		for i := range img.Schema {
			img.Schema[i].Attrs = img.Schema[i].Attrs[:1]
		}
	}, ""},
	{"duplicate wme id", func(img *snapshot.Image) { img.WMEs = append(img.WMEs, img.WMEs[0]) }, "duplicate insert"},
	{"fired entry with no instantiation", func(img *snapshot.Image) {
		img.Fired = append(img.Fired, conflict.FiredEntry{Prod: "graspable", Tags: []uint64{99}})
	}, "no live instantiation"},
	{"chunk that does not parse", func(img *snapshot.Image) { img.Chunks = []string{"(p broken"} }, "parsing chunk 0"},
	{"wrong baseHash", func(img *snapshot.Image) { img.BaseHash = "deadbeef" }, "hash mismatch"},
	{"wrong topoSig", func(img *snapshot.Image) { img.TopoSig = &rete.Sig{Nodes: 1, TwoInput: 1, Prods: 1} }, "topology mismatch"},
	{"unknown value kind", func(img *snapshot.Image) { img.WMEs[0].Fields[0].K = "z" }, "unknown value kind"},
	{"swapped schema attrs", func(img *snapshot.Image) {
		for i := range img.Schema {
			if a := img.Schema[i].Attrs; len(a) > 1 {
				a[0], a[1] = a[1], a[0]
			}
		}
	}, "not at the image schema's indices"},
}

// wrongPayload applies mutate to a fresh copy of the good image and returns
// the result as a JSON payload.
func wrongPayload(t testing.TB, good []byte, mutate func(*snapshot.Image)) []byte {
	t.Helper()
	var img snapshot.Image
	if err := json.Unmarshal(good, &img); err != nil {
		t.Fatal(err)
	}
	mutate(&img)
	out, err := json.Marshal(&img)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func goodPayload(t testing.TB) []byte {
	t.Helper()
	_, e := imageSession(t, engine.DefaultConfig())
	good, err := json.Marshal(snapshot.Export(e))
	if err != nil {
		t.Fatal(err)
	}
	return good
}

// TestRestoreRejectsWrongPayloads: each seed of the fuzz corpus fails the way
// it should — loudly, by name — or restores; and a restore that fails after
// it took its base image out of the cache gives the reference back.
func TestRestoreRejectsWrongPayloads(t *testing.T) {
	good := goodPayload(t)
	cache := engine.NewImageCache()
	for _, c := range wrongPayloads {
		var img snapshot.Image
		if err := json.Unmarshal(wrongPayload(t, good, c.mutate), &img); err != nil {
			t.Fatal(err)
		}
		before := cache.Stats().Sessions
		_, _, err := snapshot.RestoreWithCache(&img, engine.DefaultConfig(), cache)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: restore failed: %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: restore error %v, want one mentioning %q", c.name, err, c.wantErr)
		}
		want := 0
		if err == nil {
			want = 1
		}
		if held := cache.Stats().Sessions - before; held != want {
			t.Errorf("%s: restore (err %v) left %d image references held, want %d", c.name, err, held, want)
		}
	}
}

// replayBounded reports whether replaying the image's working memory through
// its productions is small: n wmes can match a production of k condition
// elements in n^k ways, and that is what the program costs on any engine, not
// something a restore could refuse.
func replayBounded(img *snapshot.Image) bool {
	tab := value.NewTable()
	n := float64(len(img.WMEs))
	for _, src := range append([]string{img.Program}, img.Chunks...) {
		prog, err := ops5.Parse(src, tab)
		if err != nil {
			continue // the restore stops at it too
		}
		for _, p := range prog.Productions {
			ces := 0
			for _, ci := range p.LHS {
				ces += 1 + len(ci.Sub)
			}
			if math.Pow(n, float64(ces)) > 1e5 {
				return false
			}
		}
	}
	return true
}

// FuzzRestore: any JSON payload that unmarshals into an Image — sealed and
// opened, as image.json is — either restores or returns an error, within a
// bound. It never panics and never hangs.
func FuzzRestore(f *testing.F) {
	good := goodPayload(f)
	for _, c := range wrongPayloads {
		f.Add(wrongPayload(f, good, c.mutate))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var in snapshot.Image
		if json.Unmarshal(payload, &in) != nil || !replayBounded(&in) {
			t.Skip()
		}
		data, err := in.Encode()
		if err != nil {
			t.Fatalf("an image that unmarshalled does not seal: %v", err)
		}
		if want := marshalSeal(t, &in); !bytes.Equal(data, want) {
			t.Fatalf("Seal differs from the marshalled envelope:\n got %s\nwant %s", data, want)
		}
		img, err := snapshot.Decode(data)
		if err != nil {
			t.Fatalf("a sealed image does not open: %v", err)
		}
		watchdog := time.AfterFunc(20*time.Second, func() {
			panic(fmt.Sprintf("restore still running after 20s: %q", payload))
		})
		defer watchdog.Stop()
		if e, _, err := snapshot.RestoreWithCache(img, engine.DefaultConfig(), nil); err == nil {
			e.Close()
		}
	})
}
