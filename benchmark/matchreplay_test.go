package main

import (
	"testing"

	"soarpsme/internal/engine"
	"soarpsme/internal/serve"
)

// TestInverseBatchesRestoreFingerprint replays inverse then forward at one
// worker — where the match is deterministic — and requires the served
// fingerprint itself, not just the harness's subset oracle, to come back.
func TestInverseBatchesRestoreFingerprint(t *testing.T) {
	tr, err := captureCypress(engine.DefaultConfig(), replayCypress(5))
	if err != nil {
		t.Fatal(err)
	}
	want := serve.Fingerprint(tr.eng)
	if len(tr.inv) != len(tr.fwd) || tr.changes == 0 {
		t.Fatalf("inverse has %d batches, forward %d, %d changes", len(tr.inv), len(tr.fwd), tr.changes)
	}
	last := tr.fwd[len(tr.fwd)-1]
	first := tr.inv[0]
	for i := range last {
		a, b := last[i], first[len(first)-1-i]
		if a.WME != b.WME || a.Op == b.Op {
			t.Fatalf("inverse batch 0 does not undo forward batch %d at delta %d", len(tr.fwd)-1, i)
		}
	}
	for _, b := range tr.inv {
		tr.eng.RT.RunCycle(b)
	}
	if n := tr.eng.CS.Len(); n != 0 {
		t.Errorf("conflict set holds %d instantiations after the inverse pass", n)
	}
	for _, b := range tr.fwd {
		tr.eng.RT.RunCycle(b)
	}
	if got := serve.Fingerprint(tr.eng); got != want {
		t.Errorf("fingerprint after inverse+forward differs from the captured one")
	}
	if err := tr.check(); err != nil || tr.stale != 0 {
		t.Errorf("check: %v, stale %d", err, tr.stale)
	}
}

// TestReplayCheckCatchesLoss makes the oracle fail the way it must: an
// instantiation of the captured conflict set that is not there after the
// round. A surplus, by contrast, is counted and passes.
func TestReplayCheckCatchesLoss(t *testing.T) {
	tr, err := captureSoar("eight", engine.DefaultConfig(), soarTasks()[0].mk)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.insts) == 0 {
		t.Fatal("the eight-puzzle solve ended with an empty conflict set")
	}
	tr.insts["no-such-production,1,2"] = 1
	if err := tr.check(); err == nil {
		t.Error("check passed with a captured instantiation missing")
	}
	delete(tr.insts, "no-such-production,1,2")
	for k := range instantiations(tr.eng) {
		tr.insts[k]--
		break
	}
	if err := tr.check(); err != nil || tr.stale != 1 {
		t.Errorf("surplus instantiation: err %v, stale %d", err, tr.stale)
	}
}
