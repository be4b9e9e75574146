package benchkit

import (
	"testing"

	"soarpsme/internal/prun"
	"soarpsme/internal/snapshot"
)

// snapshotRestoreBench measures the failover-critical path: decoding a
// session image and rebuilding a live engine from it (program reload,
// WME re-insertion, serial replay of the match network, refraction
// restore). The image is a solved chunk-heavy cypress run — runtime
// chunks and a populated conflict set included — encoded once outside
// the timer. Reported extra: bytes/session, the wire size a failover
// moves per session.
func snapshotRestoreBench(pol prun.Policy) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := replayCfg{task: "cypress", pol: pol, unlink: true}
		c := capture(b, cfg)
		data, err := snapshot.Export(c.eng).Encode()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			img, err := snapshot.Decode(data)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := snapshot.Restore(img, engCfg(cfg)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(len(data)), "bytes/session")
	}
}

// DurabilityCases is the durability bench (DESIGN §10): restore latency
// for a failover-sized session image, and the batched-ingest path with
// the write-ahead journal on vs off — the same fixed delta stream, so
// the wal=on/wal=off pair isolates the append+fdatasync cost benchjson's
// gate table budgets. The shape models the session the journal exists
// for — long-lived, full ingest batches: batch=64 is the widest request
// IngestRemoveLag admits, and 1920 deltas/session keep working memory
// (and so per-request match cost) at a steady-state size. Tiny shapes
// (short sessions, batch=8) measure barrier count, not barrier cost —
// at ~500µs of mostly-kernel CPU per fdatasync on this class of
// hardware, a 1.5ms request can never absorb a per-request barrier.
func DurabilityCases() []Case {
	return []Case{
		{Name: "SnapshotRestore/cypress", Bench: snapshotRestoreBench(prun.WorkStealing)},
		{Name: "WALIngest/4x1920/batch=64/wal=off", Bench: serveIngestBench(4, 1920, 64, prun.WorkStealing, false)},
		{Name: "WALIngest/4x1920/batch=64/wal=on", Bench: serveIngestBench(4, 1920, 64, prun.WorkStealing, true)},
	}
}
