package serve

import (
	"fmt"

	"soarpsme/internal/engine"
	"soarpsme/internal/value"
	"soarpsme/internal/wme"
)

// This file is the canonical batched-ingest workload: a deterministic
// wme-delta stream every ingest client (psmeload -ingest, tests) replays
// identically, so batch sizes are compared on byte-identical work and served
// fingerprints can be checked against an in-process serial baseline.
// (benchmark/ draws seeded streams of the same shape over the same program.)

// IngestProgram is the embedded OPS5 program ingest sessions run: item
// adds join against probe adds, so the delta stream exercises real beta
// work (and its retraction on removes), not just alpha dispatch.
const IngestProgram = `
(literalize item k v)
(literalize probe k)
(literalize hit k v)
(p hit (item ^k <k> ^v <v>) (probe ^k <k>) --> (make hit ^k <k> ^v <v>))
`

// IngestRemoveLag is the minimum slot distance between an add and the
// remove that retires it. Because the stream is chopped into batch-sized
// requests and a remove can only reference a server-assigned id from an
// EARLIER request, the lag caps the ingest batch size: any batch up to
// IngestRemoveLag chops the same stream into valid requests, keeping batch
// sizes directly comparable on identical work.
const IngestRemoveLag = 64

// IngestOp is one slot of the delta stream: an add of an item/probe wme,
// or a remove referencing the AddIdx-th add of the session (resolved to a
// server-assigned id client-side, to the engine's own wme in the
// in-process baseline).
type IngestOp struct {
	Remove bool
	Class  string
	Fields []int
	AddIdx int
}

// IngestScript builds the deterministic flat delta stream, independent of
// batch size: a rotating window of item adds over a small key alphabet,
// probe adds that join against them, and windowed removes of the oldest
// outstanding add once it is at least IngestRemoveLag slots old.
func IngestScript(deltas int) []IngestOp {
	out := make([]IngestOp, 0, deltas)
	var addSlot []int // slot index of each add, in add order
	oldest := 0
	for g := 0; g < deltas; g++ {
		switch {
		case g%4 == 3 && oldest < len(addSlot) && addSlot[oldest] < g-IngestRemoveLag:
			out = append(out, IngestOp{Remove: true, AddIdx: oldest})
			oldest++
		case g%17 == 5:
			out = append(out, IngestOp{Class: "probe", Fields: []int{g % 5}})
			addSlot = append(addSlot, g)
		default:
			out = append(out, IngestOp{Class: "item", Fields: []int{g % 5, g}})
			addSlot = append(addSlot, g)
		}
	}
	return out
}

// ChopScript splits the flat stream into per-request batches of size n;
// each batch is ingested as one match cycle.
func ChopScript(script []IngestOp, n int) [][]IngestOp {
	var out [][]IngestOp
	for len(script) > 0 {
		k := n
		if k > len(script) {
			k = len(script)
		}
		out = append(out, script[:k])
		script = script[k:]
	}
	return out
}

// IngestBatchJSON resolves one batch of the stream to wire-format deltas,
// mapping remove references through the server-assigned ids accumulated so
// far (RunResult.Added, in add order).
func IngestBatchJSON(ops []IngestOp, ids []uint64) ([]DeltaJSON, error) {
	batch := make([]DeltaJSON, 0, len(ops))
	for _, op := range ops {
		if op.Remove {
			if op.AddIdx >= len(ids) {
				return nil, fmt.Errorf("serve: ingest remove references add %d before its id was returned", op.AddIdx)
			}
			batch = append(batch, DeltaJSON{Op: "remove", ID: ids[op.AddIdx]})
			continue
		}
		fields := make([]any, len(op.Fields))
		for i, f := range op.Fields {
			fields[i] = f
		}
		batch = append(batch, DeltaJSON{Op: "add", Class: op.Class, Fields: fields})
	}
	return batch, nil
}

// IngestBaseline replays the chopped delta stream on a fresh in-process
// serial engine — the exact sequence the server sees, one ApplyAndMatch
// per batch — and returns the per-cycle fingerprints served sessions must
// match byte for byte.
func IngestBaseline(batches [][]IngestOp) ([]string, error) {
	return ingestBaseline(batches, Fingerprint)
}

// ingestBaseline is IngestBaseline with each cycle rendered by render.
func ingestBaseline(batches [][]IngestOp, render func(*engine.Engine) string) ([]string, error) {
	ec := engine.DefaultConfig()
	ec.Processes = 1
	e := engine.New(ec)
	if err := e.LoadProgram(IngestProgram); err != nil {
		return nil, err
	}
	var added []*wme.WME
	var fps []string
	for _, ops := range batches {
		var ds []wme.Delta
		for _, op := range ops {
			if op.Remove {
				ds = append(ds, wme.Delta{Op: wme.Remove, WME: added[op.AddIdx]})
				continue
			}
			fields := make([]value.Value, len(op.Fields))
			for i, f := range op.Fields {
				fields[i] = value.IntVal(int64(f))
			}
			w := e.WM.Make(e.Tab.Intern(op.Class), fields)
			added = append(added, w)
			ds = append(ds, wme.Delta{Op: wme.Add, WME: w})
		}
		e.ApplyAndMatch(ds)
		fps = append(fps, render(e))
	}
	return fps, nil
}
