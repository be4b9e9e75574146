package snapshot_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/serve"
	"soarpsme/internal/snapshot"
	"soarpsme/internal/tasks/cypress"
)

// marshalledEnvelope is the envelope as json.Marshal writes it: the on-disk
// format, which Seal writes by hand and every build must read.
type marshalledEnvelope struct {
	Version int             `json:"version"`
	CRC     uint32          `json:"crc"`
	Payload json.RawMessage `json:"payload"`
}

// marshalSeal is the envelope written the general way: the payload
// marshalled, then the envelope around it.
func marshalSeal(t testing.TB, payload any) []byte {
	t.Helper()
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(marshalledEnvelope{Version: snapshot.FormatVersion, CRC: snapshot.Checksum(raw), Payload: raw})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// unmarshalOpen is Open read the general way, with no framed path: the
// envelope unmarshalled, then its version, its checksum and only then its
// payload checked.
func unmarshalOpen(data []byte, out any) (marshalledEnvelope, error) {
	var env marshalledEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return env, fmt.Errorf("bad envelope: %w", err)
	}
	if env.Version < 1 || env.Version > snapshot.FormatVersion {
		return env, fmt.Errorf("format version %d", env.Version)
	}
	if snapshot.Checksum(env.Payload) != env.CRC {
		return env, fmt.Errorf("checksum mismatch")
	}
	return env, json.Unmarshal(env.Payload, out)
}

// refractionImage is refractionProg's engine exported after a few firings.
func refractionImage(t testing.TB) *snapshot.Image {
	t.Helper()
	e := engine.New(engine.DefaultConfig())
	if err := e.LoadProgram(refractionProg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return snapshot.Export(e)
}

// servedImage is the image.json a durable server writes for a cypress
// session that ran, added chunks and was snapshotted.
func servedImage(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	s := serve.New(serve.Config{Workers: 2, Processes: 2, DataDir: dir})
	defer s.Close()
	h := s.Handler()
	post := func(path string, body any) {
		b, _ := json.Marshal(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(b)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
			t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
		}
	}
	p := cypress.Params{Productions: 30, Chunks: 4, Cycles: 40, Seed: 5}
	post("/sessions", serve.CreateRequest{ID: "cy", Task: "cypress", Params: &p})
	post("/sessions/cy/run", serve.RunRequest{Cycles: 30, Seq: 1, Chunking: true})
	post("/sessions/cy/snapshot", nil)
	data, err := os.ReadFile(filepath.Join(dir, "cy", "image.json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// standalonePayload is the payload of testdata/standalone-parent.json's
// image, and the image as that build wrote it.
func standalonePayload(t testing.TB) (json.RawMessage, []byte) {
	t.Helper()
	raw, err := os.ReadFile("testdata/standalone-parent.json")
	if err != nil {
		t.Fatal(err)
	}
	var fx struct {
		Image string `json:"image"`
	}
	if err := json.Unmarshal(raw, &fx); err != nil {
		t.Fatal(err)
	}
	var payload json.RawMessage
	if _, err := unmarshalOpen([]byte(fx.Image), &payload); err != nil {
		t.Fatal(err)
	}
	return payload, []byte(fx.Image)
}

// TestSealIsMarshalledEnvelope pins the on-disk format: Seal writes what
// json.Marshal writes of the envelope, byte for byte, so builds before and
// after the hand-framed envelope read each other's image.json.
func TestSealIsMarshalledEnvelope(t *testing.T) {
	served := servedImage(t)
	var servedPayload json.RawMessage
	if _, err := unmarshalOpen(served, &servedPayload); err != nil {
		t.Fatal(err)
	}
	if want := marshalSeal(t, servedPayload); !bytes.Equal(served, want) {
		t.Fatalf("served image.json is not the marshalled envelope of its payload:\n got %.200s\nwant %.200s", served, want)
	}
	standalone, written := standalonePayload(t)
	for name, payload := range map[string]any{
		"refraction image": refractionImage(t),
		"served cypress":   servedPayload,
		"standalone":       standalone,
		"null":             nil,
		"html and U+2028":  map[string]string{"s": "<a> & \u2028 \xff"},
	} {
		got, err := snapshot.Seal(payload)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalSeal(t, payload); !bytes.Equal(got, want) {
			t.Fatalf("%s: Seal differs from the marshalled envelope:\n got %.300s\nwant %.300s", name, got, want)
		}
		raw, _ := json.Marshal(payload)
		if crc, p, ok := snapshot.SplitSealed(got); !ok || crc != snapshot.Checksum(raw) || !bytes.Equal(p, raw) {
			t.Fatalf("%s: the framed path does not split what Seal wrote (ok %v)", name, ok)
		}
	}
	if got, _ := snapshot.Seal(standalone); !bytes.Equal(got, written) {
		t.Fatalf("Seal of the standalone fixture's payload is not the image its build wrote:\n got %s\nwant %s", got, written)
	}
}

// TestOpenReadsEveryFraming: an envelope json.Unmarshal reads — keys in
// another order, whitespace, version 1, a repeated key whose last value
// counts — opens to the same image as the canonical one.
func TestOpenReadsEveryFraming(t *testing.T) {
	img := refractionImage(t)
	canonical, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var env marshalledEnvelope
	if err := json.Unmarshal(canonical, &env); err != nil {
		t.Fatal(err)
	}
	v1 := env
	v1.Version = 1
	version1, _ := json.Marshal(v1)
	crc := fmt.Sprint(env.CRC)
	for name, data := range map[string][]byte{
		"canonical":         canonical,
		"reordered":         []byte(`{"payload":` + string(env.Payload) + `,"crc":` + crc + `,"version":2}`),
		"crc first":         []byte(`{"crc":` + crc + `,"version":2,"payload":` + string(env.Payload) + `}`),
		"spaces":            []byte(`{"version": 2, "crc": ` + crc + `, "payload": ` + string(env.Payload) + ` }`),
		"newlines":          []byte("{\n  \"version\": 2,\n  \"crc\": " + crc + ",\n  \"payload\": " + string(env.Payload) + "\n}\n"),
		"trailing newline":  append(append([]byte(nil), canonical...), '\n'),
		"version 1":         version1,
		"space after colon": bytes.Replace(canonical, []byte(`"payload":`), []byte(`"payload": `), 1),
		"crc given twice":   []byte(`{"version":2,"crc":0,"payload":` + string(env.Payload) + `,"crc":` + crc + `}`),
	} {
		got, err := snapshot.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again, _ := got.Encode()
		if !bytes.Equal(again, canonical) {
			t.Fatalf("%s: opened to a different image", name)
		}
	}
}

// TestOpenRejectsDamage: a file cut short at any closing brace near its end,
// a changed CRC digit, or bytes after the closing brace is refused with the
// checksum or envelope error, whichever path reads it.
func TestOpenRejectsDamage(t *testing.T) {
	img := refractionImage(t)
	served := servedImage(t)
	sealed, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"refraction": sealed, "served": served} {
		reject := func(what string, bad []byte) {
			t.Helper()
			err := snapshot.Open(bad, &json.RawMessage{})
			if err == nil || !strings.Contains(err.Error(), "checksum") && !strings.Contains(err.Error(), "envelope") {
				t.Fatalf("%s, %s: Open error %v, want a checksum or envelope error", name, what, err)
			}
		}
		cuts := 0
		for i := max(0, len(data)-1024); i < len(data)-1; i++ {
			if data[i] == '}' {
				reject(fmt.Sprintf("cut after byte %d", i), data[:i+1])
				cuts++
			}
		}
		if cuts == 0 {
			t.Fatalf("%s: no closing brace in the last 1 KB", name)
		}
		digits := len(fmt.Sprintf(`{"version":%d,"crc":`, snapshot.FormatVersion))
		for i := digits; data[i] >= '0' && data[i] <= '9'; i++ {
			bad := append([]byte(nil), data...)
			bad[i] = '0' + (bad[i]-'0'+1)%10
			if i == digits && bad[i] == '0' {
				bad[i] = '1' // no leading zero: still a CRC, just a wrong one
			}
			reject(fmt.Sprintf("CRC digit %d changed", i-digits), bad)
		}
		for _, tail := range []string{"}", "x", "{}", ` "`, `,"crc":0}`} {
			reject(fmt.Sprintf("trailing %q", tail), append(append([]byte(nil), data...), tail...))
		}
	}
}

// FuzzOpen: for any input, Open's framed path and the json.Unmarshal path
// agree. Where the frame splits and its payload is one JSON value, the
// envelope unmarshals to the same version, CRC and payload bytes; and Open
// fails exactly when the unmarshalled reading fails, with the same payload
// when both succeed.
func FuzzOpen(f *testing.F) {
	sealed, err := refractionImage(f).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	for _, n := range []int{1, 2, 3, 10, 40, 41, len(sealed) / 2, len(sealed) - 20} {
		f.Add(sealed[:len(sealed)-n])
	}
	f.Add([]byte(`{"version":2,"crc":4294967295,"payload":{}}`))
	f.Add([]byte(`{"version":2,"crc":0,"payload":null}`))
	f.Add([]byte(`{"version":2,"crc":1,"payload":{"a":1},"crc":2}`))
	f.Add([]byte(fmt.Sprintf(`{"version":2,"crc":0,"payload":{"a":1},"crc":%d}`, snapshot.Checksum([]byte(`{"a":1}`)))))
	f.Add([]byte(`{"version":2,"crc":0,"payload": {} }`))
	f.Add([]byte(`{"version":2,"crc":00,"payload":0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var env marshalledEnvelope
		envErr := json.Unmarshal(data, &env)
		if crc, payload, ok := snapshot.SplitSealed(data); ok && json.Valid(payload) {
			if envErr != nil {
				t.Fatalf("framed path read crc %d, payload %q; json.Unmarshal failed: %v", crc, payload, envErr)
			}
			if env.Version != snapshot.FormatVersion || env.CRC != crc || !bytes.Equal(env.Payload, payload) {
				t.Fatalf("framed path read version %d, crc %d, payload %q; json.Unmarshal read %d, %d, %q",
					snapshot.FormatVersion, crc, payload, env.Version, env.CRC, env.Payload)
			}
		}
		var got, want json.RawMessage
		err := snapshot.Open(data, &got)
		_, wantErr := unmarshalOpen(data, &want)
		if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("Open: %q, %v; json.Unmarshal path: %q, %v", got, err, want, wantErr)
		}
	})
}
