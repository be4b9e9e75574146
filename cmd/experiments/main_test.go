package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"soarpsme/internal/exp"
	"soarpsme/internal/obs"
)

// TestReportMatchesGolden renders `experiments -exp all` the way main does
// and checks three things on that one rendering, so no capture runs twice:
//
//   - the report equals testdata/exp-all.golden byte for byte (an intended
//     figure change regenerates the file: go run ./cmd/experiments -exp all
//     > cmd/experiments/testdata/exp-all.golden);
//   - the abl-bilinear rows carry the claims the restructuring pass lives
//     on, so a regenerated golden cannot drop them (bilinearClaims);
//   - each driver that varies the network options captures through the lab
//     it is given: the lab's observer counts match cycles during its
//     section, so it ran a capture of its own, in report order.
func TestReportMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/exp-all.golden")
	if err != nil {
		t.Fatal(err)
	}
	l := exp.NewLab()
	o := obs.New()
	l.SetObserver(o)
	cycles := o.Counter("match_cycles_total")
	ran := map[string]uint64{}
	last := cycles.Value()
	var out bytes.Buffer
	err = report(&out, l, "all", func(id string) {
		ran[id] = cycles.Value() - last
		last = cycles.Value()
	})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if got != string(want) {
		t.Errorf("report differs from the golden file at %s", firstDiff(got, string(want)))
	}
	for _, p := range bilinearClaims(t, section(got, "abl-bilinear")) {
		t.Errorf("abl-bilinear: %s", p)
	}
	for _, id := range []string{"abl-mem", "abl-unlink", "abl-bilinear", "abl-share", "longrun", "f68"} {
		if ran[id] == 0 {
			t.Errorf("%s: no match cycle reached the lab's observer", id)
		}
	}
}

// firstDiff names the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
	return "length"
}

// section returns the body of report section id, without its header.
func section(report, id string) string {
	_, body, ok := strings.Cut(report, "==== "+id+" (")
	if !ok {
		return ""
	}
	_, body, _ = strings.Cut(body, "\n")
	body, _, _ = strings.Cut(body, "\n==== ")
	return body
}

// bilinearClaims checks the abl-bilinear rows (cypress with chunks added at
// run time, unlink on, at bilinear off/all/auto) and returns the claims that
// fail: auto selects victims and shortens the longest chain, its balanced
// tree is no deeper than all's left spine, and the simulated speedup at 13
// processes at least doubles the linear network's (Figure 6-8's lift).
func bilinearClaims(t *testing.T, body string) []string {
	type row struct {
		restructured, chain int
		s13                 float64
	}
	rows := map[string]row{}
	var fails []string
	for _, line := range strings.Split(body, "\n") {
		f := strings.Fields(line)
		if len(f) != 7 || (f[0] != "off" && f[0] != "all" && f[0] != "auto") {
			continue
		}
		if _, dup := rows[f[0]]; dup {
			fails = append(fails, "two "+f[0]+" rows")
		}
		r := row{}
		var err error
		if r.restructured, err = strconv.Atoi(f[1]); err == nil {
			if r.chain, err = strconv.Atoi(f[2]); err == nil {
				r.s13, err = strconv.ParseFloat(f[5], 64)
			}
		}
		if err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		rows[f[0]] = r
	}
	off, okOff := rows["off"]
	all, okAll := rows["all"]
	auto, okAuto := rows["auto"]
	if !okOff || !okAll || !okAuto {
		return append(fails, fmt.Sprintf("want one row each for off, all and auto, got %d distinct rows", len(rows)))
	}
	if off.restructured != 0 {
		fails = append(fails, fmt.Sprintf("off restructured %d productions", off.restructured))
	}
	if auto.restructured == 0 {
		fails = append(fails, "auto selected no victims")
	}
	if auto.chain >= off.chain {
		fails = append(fails, fmt.Sprintf("auto did not shorten the longest chain: %d vs off %d", auto.chain, off.chain))
	}
	if auto.chain > all.chain {
		fails = append(fails, fmt.Sprintf("auto's balanced tree is deeper than all's left spine: %d vs %d", auto.chain, all.chain))
	}
	if auto.s13 < 2*off.s13 {
		fails = append(fails, fmt.Sprintf("no speedup lift at 13 processes: auto %.2f vs off %.2f", auto.s13, off.s13))
	}
	return fails
}
