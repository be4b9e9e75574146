package main

import (
	"reflect"
	"testing"

	"soarpsme/internal/serve"
)

func TestIngestStreamDeterministicPerSeed(t *testing.T) {
	a, b := ingestStream(7, 960), ingestStream(7, 960)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed built two different streams")
	}
	if reflect.DeepEqual(a, ingestStream(8, 960)) {
		t.Fatal("seeds 7 and 8 built the same stream")
	}
	// A shorter stream is a prefix of a longer one: b1 and b8 sessions see
	// the same first 480 deltas.
	if !reflect.DeepEqual(a[:480], ingestStream(7, 480)) {
		t.Fatal("the 480-delta stream is not a prefix of the 960-delta stream")
	}
}

// TestIngestStreamShape pins what keeps seeds comparable: the same counts
// of removes and probes whatever the seed, and keys dealt evenly.
func TestIngestStreamShape(t *testing.T) {
	type shape struct{ removes, probes, items int }
	var first shape
	for seed := uint64(1); seed <= 5; seed++ {
		var s shape
		perKey := make([]int, ingestKeys)
		for _, op := range ingestStream(seed, 960) {
			switch {
			case op.Remove:
				s.removes++
			case op.Class == "probe":
				s.probes++
				perKey[op.Fields[0]]++
			default:
				s.items++
				perKey[op.Fields[0]]++
			}
		}
		if seed == 1 {
			first = s
			if s.removes == 0 || s.probes == 0 || s.items == 0 {
				t.Fatalf("degenerate stream: %+v", s)
			}
		} else if d := s.probes - first.probes; s.removes != first.removes || d < -1 || d > 1 {
			// The last block of adds may be cut short before its probe.
			t.Errorf("seed %d: %+v, seed 1: %+v", seed, s, first)
		}
		for k, n := range perKey {
			if n < perKey[0]-1 || n > perKey[0]+1 {
				t.Errorf("seed %d: key %d dealt %d times, key 0 %d", seed, k, n, perKey[0])
			}
		}
	}
}

// TestIngestStreamRemoveLag checks that the stream chops into valid
// requests at both batch sizes: every remove names an add at least
// IngestRemoveLag slots back, hence one whose id an earlier response has
// already returned, and no add is removed twice.
func TestIngestStreamRemoveLag(t *testing.T) {
	for _, batch := range []int{1, 8} {
		stream := ingestStream(3, 960)
		var addSlot []int
		removed := map[int]bool{}
		for g, op := range stream {
			if !op.Remove {
				addSlot = append(addSlot, g)
				continue
			}
			if op.AddIdx >= len(addSlot) {
				t.Fatalf("slot %d removes add %d, which does not exist yet", g, op.AddIdx)
			}
			if lag := g - addSlot[op.AddIdx]; lag <= serve.IngestRemoveLag {
				t.Errorf("slot %d removes an add only %d slots old", g, lag)
			}
			if addSlot[op.AddIdx]/batch >= g/batch {
				t.Errorf("batch %d: slot %d removes an add of its own request", batch, g)
			}
			if removed[op.AddIdx] {
				t.Errorf("add %d removed twice", op.AddIdx)
			}
			removed[op.AddIdx] = true
		}
		// The wire form resolves with only the ids earlier requests returned.
		var ids []uint64
		for i, ops := range serve.ChopScript(stream, batch) {
			if _, err := serve.IngestBatchJSON(ops, ids); err != nil {
				t.Fatalf("batch %d request %d: %v", batch, i, err)
			}
			for _, op := range ops {
				if !op.Remove {
					ids = append(ids, uint64(len(ids)+1))
				}
			}
		}
		if _, err := serve.IngestBaseline(serve.ChopScript(stream, batch)); err != nil {
			t.Fatalf("batch %d: serial reference: %v", batch, err)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	p := newRNG(1, "x").perm(7)
	seen := map[int]bool{}
	for _, v := range p {
		seen[v] = true
	}
	if len(p) != 7 || len(seen) != 7 {
		t.Errorf("perm = %v", p)
	}
	if reflect.DeepEqual(newRNG(1, "x").perm(7), newRNG(1, "y").perm(7)) &&
		reflect.DeepEqual(newRNG(1, "x").perm(7), newRNG(2, "x").perm(7)) {
		t.Error("stream name and seed do not change the permutation")
	}
}
