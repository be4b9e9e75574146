// Command psmestat renders match-profiling data: ranked hot productions
// (attributed modeled cost, chain depth, null-activation rates) and the
// chain-depth / task-granularity histograms — from a live psmed daemon's
// /debug/match endpoint or from a dumped flight-recorder file.
//
// Usage:
//
//	psmestat [-addr http://localhost:8740] [-session ID] [-top 20]
//	psmestat -flight [-addr ...]           # latest anomaly dump from a daemon
//	psmestat -file matchflight-*.json      # offline dump file
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"soarpsme/internal/engine"
	"soarpsme/internal/matchprof"
	"soarpsme/internal/prun"
	"soarpsme/internal/rete"
)

func main() {
	addr := flag.String("addr", "http://localhost:8740", "psmed base URL")
	session := flag.String("session", "", "show one session instead of the aggregate")
	file := flag.String("file", "", "read a dumped flight-recorder file instead of a live daemon")
	flight := flag.Bool("flight", false, "fetch the latest flight dump from the daemon instead of the live snapshot")
	top := flag.Int("top", 20, "hot productions to list")
	flag.Parse()

	switch {
	case *file != "":
		d, err := matchprof.ReadDump(*file)
		if err != nil {
			fatal(err)
		}
		renderDump(d, *top)
	case *flight:
		d, err := fetchDump(*addr, *session)
		if err != nil {
			fatal(err)
		}
		renderDump(d, *top)
	default:
		snap, sessions, cache, err := fetchSnapshot(*addr, *session)
		if err != nil {
			fatal(err)
		}
		renderSnapshot(snap, *top)
		if len(sessions) > 1 {
			fmt.Printf("\nper-session (use -session ID for detail):\n")
			for _, s := range sessions {
				fmt.Printf("  %-8s cycles=%-6d acts=%-10d null-rate=%.1f%% cost=%dus\n",
					s.Session, s.Cycles, s.Totals.Acts, 100*s.NullRate, s.Totals.Cost)
			}
		}
		if cache != nil {
			total := cache.Hits + cache.Misses
			rate := 0.0
			if total > 0 {
				rate = 100 * float64(cache.Hits) / float64(total)
			}
			fmt.Printf("\nimage cache: %d compiled image(s) live, %d session ref(s), %d/%d lookups warm (%.1f%% hit rate)\n",
				cache.Live, cache.Sessions, cache.Hits, total, rate)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "psmestat:", err)
	os.Exit(1)
}

func get(url string, v any) error {
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		if e.Error != "" {
			return fmt.Errorf("%s: %s", url, e.Error)
		}
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func fetchSnapshot(addr, session string) (*matchprof.Snapshot, []*matchprof.Snapshot, *engine.CacheStats, error) {
	base := strings.TrimSuffix(addr, "/")
	if session != "" {
		var s matchprof.Snapshot
		if err := get(base+"/debug/match?session="+session, &s); err != nil {
			return nil, nil, nil, err
		}
		return &s, nil, nil, nil
	}
	var out struct {
		Sessions   []*matchprof.Snapshot `json:"sessions"`
		Aggregate  *matchprof.Snapshot   `json:"aggregate"`
		ImageCache *engine.CacheStats    `json:"image_cache"`
	}
	if err := get(base+"/debug/match", &out); err != nil {
		return nil, nil, nil, err
	}
	if out.Aggregate == nil {
		return nil, nil, nil, fmt.Errorf("no snapshot in response")
	}
	return out.Aggregate, out.Sessions, out.ImageCache, nil
}

func fetchDump(addr, session string) (*matchprof.Dump, error) {
	base := strings.TrimSuffix(addr, "/") + "/debug/match/flight"
	if session != "" {
		base += "?session=" + session
	}
	var d matchprof.Dump
	if err := get(base, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

func renderSnapshot(s *matchprof.Snapshot, top int) {
	label := s.Session
	if label == "" {
		label = "(solo)"
	}
	fmt.Printf("match profile %s  cycles=%d nodes=%d\n", label, s.Cycles, s.Nodes)
	fmt.Printf("totals: acts=%d emitted=%d nulls=%d (%.1f%% null) modeled-cost=%dus\n",
		s.Totals.Acts, s.Totals.Emitted, s.Totals.Nulls, 100*s.NullRate, s.Totals.Cost)
	if s.Totals.Samples > 0 {
		fmt.Printf("sampled: %d tasks, mean %.0fns/task wall\n",
			s.Totals.Samples, float64(s.Totals.SampleNS)/float64(s.Totals.Samples))
	}

	fmt.Printf("\nhot productions (by attributed modeled cost):\n")
	fmt.Printf("  %-4s %-28s %-5s %5s %5s %10s %8s %7s %8s %10s\n",
		"#", "production", "shape", "chain", "nodes", "acts", "nulls", "null%", "cost%", "cost-us")
	n := len(s.Productions)
	if top > 0 && n > top {
		n = top
	}
	restructured := 0
	for _, p := range s.Productions {
		if p.Restructured {
			restructured++
		}
	}
	for i := 0; i < n; i++ {
		p := s.Productions[i]
		name := p.Name
		if len(name) > 28 {
			name = name[:25] + "..."
		}
		shape := "lin"
		if p.Restructured {
			shape = "bilin"
		}
		fmt.Printf("  %-4d %-28s %-5s %5d %5d %10d %8d %6.1f%% %7.1f%% %10d\n",
			i+1, name, shape, p.ChainDepth, p.Nodes, p.Totals.Acts, p.Totals.Nulls,
			100*p.NullRate, 100*p.CostShare, p.Totals.Cost)
	}
	if len(s.Productions) > n {
		fmt.Printf("  ... %d more\n", len(s.Productions)-n)
	}
	if s.Unattributed.Acts > 0 || s.Unattributed.Cost > 0 {
		fmt.Printf("  %-4s %-28s %-5s %5s %5s %10d %8d %6.1f%% %7s %10d\n",
			"-", "(unattributed)", "", "", "", s.Unattributed.Acts, s.Unattributed.Nulls,
			100*s.Unattributed.NullRate(), "", s.Unattributed.Cost)
	}
	if restructured > 0 {
		fmt.Printf("  %d of %d production(s) bilinear-restructured (shape=bilin; chain is the longest root-to-P path through the pair-join tree)\n",
			restructured, len(s.Productions))
	}

	fmt.Printf("\nchain-depth histogram (tasks by dependent-chain depth):\n")
	renderHist(s.DepthHist, func(i int) string { return fmt.Sprintf("%d", i+1) })
	fmt.Printf("\ntask-granularity histogram (tasks by modeled cost, us):\n")
	renderHist(s.CostHist, func(i int) string { return fmt.Sprintf("%d-%d", 1<<i, 1<<(i+1)) })
}

// renderHist prints non-empty buckets with proportional bars.
func renderHist(h []int64, label func(int) string) {
	var max, total int64
	last := -1
	for i, v := range h {
		total += v
		if v > max {
			max = v
		}
		if v > 0 {
			last = i
		}
	}
	if total == 0 {
		fmt.Println("  (empty)")
		return
	}
	for i := 0; i <= last; i++ {
		v := h[i]
		bar := strings.Repeat("#", int(40*v/max))
		fmt.Printf("  %9s %10d %5.1f%% %s\n", label(i), v, 100*float64(v)/float64(total), bar)
	}
}

func renderDump(d *matchprof.Dump, top int) {
	fmt.Printf("flight dump: %s\n", d.Reason)
	fmt.Printf("tripped at %s  session=%s  cycle=%d", d.TrippedAt, orDash(d.Session), d.Cycle)
	if d.Path != "" {
		fmt.Printf("  (%s)", d.Path)
	}
	fmt.Println()
	fmt.Printf("\nrecorded cycles (%d):\n", len(d.Cycles))
	for _, c := range d.Cycles {
		status := ""
		if c.Failed {
			status = "  FAILED"
		}
		if c.Recovered {
			status += "  recovered"
		}
		if c.Reason != "" {
			status += "  [" + c.Reason + "]"
		}
		fmt.Printf("  cycle %-6d tasks=%-6d workers=%-2d wall=%.0fus depth<=%d%s\n",
			c.Cycle, c.Tasks, c.Workers, c.DurUS, maxDepth(c.Trace), status)
	}
	fmt.Printf("\n%d trace events (load the dump file in chrome://tracing: each worker lane replays its tasks at their modeled cost)\n", len(d.Events))
	if d.Snapshot != nil {
		fmt.Println()
		renderSnapshot(d.Snapshot, top)
	}
	// Hot nodes inside the recorded window: aggregate the ring traces.
	type nodeAgg struct {
		kind  string
		tasks int
		cost  int64
	}
	agg := map[rete.NodeID]*nodeAgg{}
	for _, c := range d.Cycles {
		for _, t := range c.Trace {
			a := agg[t.Node]
			if a == nil {
				a = &nodeAgg{kind: t.Kind.String()}
				agg[t.Node] = a
			}
			a.tasks++
			a.cost += t.Cost
		}
	}
	if len(agg) > 0 {
		type row struct {
			id rete.NodeID
			*nodeAgg
		}
		rows := make([]row, 0, len(agg))
		for id, a := range agg {
			rows = append(rows, row{id, a})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].cost > rows[j].cost })
		n := len(rows)
		if n > 10 {
			n = 10
		}
		fmt.Printf("\nhot nodes within the recorded window:\n")
		for _, r := range rows[:n] {
			fmt.Printf("  %s#%-5d tasks=%-6d cost=%dus\n", r.kind, r.id, r.tasks, r.cost)
		}
	}
}

func maxDepth(trace []prun.TaskRec) int32 {
	var d int32
	for _, t := range trace {
		if t.Depth > d {
			d = t.Depth
		}
	}
	return d
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
