package exp

import (
	"strconv"
	"strings"
	"testing"
)

func cellInt(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return n
}

func TestAblationMemoriesHashingWins(t *testing.T) {
	tbl, err := AblationMemories(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	hashed := cellInt(t, tbl.Rows[0][1])
	linear := cellInt(t, tbl.Rows[1][1])
	// §6.1: hashing reduces comparisons — by a lot.
	if linear < 3*hashed {
		t.Fatalf("hashing should cut comparisons >=3x: hashed %d, linear %d", hashed, linear)
	}
}

func TestAblationSharingReducesNodes(t *testing.T) {
	tbl, err := AblationSharing(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	shared := cellInt(t, tbl.Rows[0][1])
	unshared := cellInt(t, tbl.Rows[1][1])
	if shared >= unshared {
		t.Fatalf("sharing should reduce two-input nodes: %d vs %d", shared, unshared)
	}
}

func TestAblationAsyncLiftsSpeedup(t *testing.T) {
	tbl, err := AblationAsync(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		syncSp := parseF(t, row[1])
		asyncSp := parseF(t, row[2])
		if asyncSp <= syncSp {
			t.Errorf("%s: async upper bound (%.2f) not above sync (%.2f)", row[0], asyncSp, syncSp)
		}
	}
}

func TestDiagnoseFindsLongChains(t *testing.T) {
	c, err := sharedLab.eightPuzzle(duringChunk)
	if err != nil {
		t.Fatal(err)
	}
	diags := diagnose(c, 11, 5)
	if len(diags) == 0 {
		t.Fatalf("no low-speedup cycles found")
	}
	causes := map[string]int{}
	for _, d := range diags {
		causes[d.cause]++
		if d.speedup >= 5 {
			t.Fatalf("diagnosis above threshold: %+v", d)
		}
	}
	if causes["long-chain"] == 0 {
		t.Errorf("no long-chain diagnosis (causes: %v)", causes)
	}
	// Long-chain diagnoses name a production and suggest bilinear.
	for _, d := range diags {
		if d.cause == "long-chain" {
			if d.production == "" || !strings.Contains(d.suggestion, "bilinear") {
				t.Fatalf("long-chain diagnosis incomplete: %+v", d)
			}
			break
		}
	}
	tbl, err := DiagnoseTable(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("DiagnoseTable empty")
	}
}

func TestLongRunChunkingGrows(t *testing.T) {
	tbl, err := LongRunChunking(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	firstChunks := cellInt(t, tbl.Rows[0][3])
	lastChunks := cellInt(t, tbl.Rows[len(tbl.Rows)-1][3])
	if lastChunks <= firstChunks {
		t.Fatalf("chunks did not accumulate: %d -> %d", firstChunks, lastChunks)
	}
	firstNodes := cellInt(t, tbl.Rows[0][4])
	lastNodes := cellInt(t, tbl.Rows[len(tbl.Rows)-1][4])
	if lastNodes <= firstNodes {
		t.Fatalf("network did not grow: %d -> %d", firstNodes, lastNodes)
	}
	// §6.3: parallelism grows as chunks accumulate.
	firstSp := parseF(t, tbl.Rows[0][5])
	lastSp := parseF(t, tbl.Rows[len(tbl.Rows)-1][5])
	if lastSp <= firstSp {
		t.Fatalf("parallelism did not grow with learning: %.2f -> %.2f", firstSp, lastSp)
	}
}

func TestAblationAdaptiveQueuesOracleAtLeastMulti(t *testing.T) {
	tbl, err := AblationAdaptiveQueues(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if parseF(t, row[2]) < parseF(t, row[1])-0.01 {
			t.Errorf("%s: oracle (%s) below always-multi (%s)", row[0], row[2], row[1])
		}
	}
}

func TestSummaryAllShapesHold(t *testing.T) {
	tbl, err := Summary(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 9 {
		t.Fatalf("scorecard too short: %d rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[3] != "holds" {
			t.Errorf("%s: %s (paper %q, measured %q)", row[0], row[3], row[1], row[2])
		}
	}
}

// TestAblationUnlinkCutsScheduledWork: per task, the filter on schedules no
// more tasks than the paper's engine and suppresses some null activations;
// off suppresses none. These counts repeat exactly, which a wall-clock
// on/off pair does not.
func TestAblationUnlinkCutsScheduledWork(t *testing.T) {
	tbl, err := AblationUnlink(sharedLab)
	if err != nil {
		t.Fatal(err)
	}
	n := len(taskNames)
	if len(tbl.Rows) != 2*n {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), 2*n)
	}
	for i := 0; i < n; i++ {
		off, on := tbl.Rows[i], tbl.Rows[n+i]
		if off[0] != on[0] {
			t.Fatalf("row %d pairs %q with %q", i, off[0], on[0])
		}
		if a, b := cellInt(t, on[2]), cellInt(t, off[2]); a > b {
			t.Errorf("%s: unlink on executed %d tasks, off %d", on[0], a, b)
		}
		if s := cellInt(t, on[3]); s <= 0 {
			t.Errorf("%s: unlink on suppressed %d null activations", on[0], s)
		}
		if s := cellInt(t, off[3]); s != 0 {
			t.Errorf("%s: unlink off suppressed %d null activations", off[0], s)
		}
	}
}
