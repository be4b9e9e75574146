package rete

import (
	"fmt"
	"strings"
	"testing"

	"soarpsme/internal/wme"
)

// poolSched hands every child activation the same parked task and drops it
// on Push, so an Exec under it allocates only what the activation itself
// emits.
type poolSched struct {
	t     Task
	spill Spill
}

func (s *poolSched) NewTask() *Task { return &s.t }
func (s *poolSched) Push(*Task)     {}
func (s *poolSched) Spill() *Spill  { return &s.spill }

// TestJoinActivationAllocs pins what one join activation allocates once its
// hash line has capacity: an add, one token per match and nothing else — no
// memory entry (lines hold entries by value), no emitter, no match buffer,
// no closure — for every k up to matchInline, and nothing at all on a miss;
// a remove, nothing at all, since it finds the stored token it deletes and
// names each child by that token instead of building one. A left remove
// carries its token as a remove cascade does, by its stored parent.
func TestJoinActivationAllocs(t *testing.T) {
	const runs = 50
	for _, unlink := range []bool{true, false} {
		for k := 0; k <= matchInline; k++ {
			for _, c := range []struct {
				name string
				dir  Dir
				key  string // x finds the k stored partners, y none
				op   wme.Op
			}{
				{"right", DirRight, "x", wme.Add}, {"right-miss", DirRight, "y", wme.Add},
				{"left", dirLeft, "x", wme.Add}, {"left-miss", dirLeft, "y", wme.Add},
				{"right-remove", DirRight, "x", wme.Remove}, {"right-remove-miss", DirRight, "y", wme.Remove},
				{"left-remove", dirLeft, "x", wme.Remove}, {"left-remove-miss", dirLeft, "y", wme.Remove},
			} {
				t.Run(fmt.Sprintf("unlink=%t/k=%d/%s", unlink, k, c.name), func(t *testing.T) {
					opts := DefaultOptions()
					opts.Unlink = unlink
					e := newEnvOpts(t, `
(literalize a k)
(literalize b k)
(p j (a ^k <k>) (b ^k <k>) --> (make o))
`, opts)
					j := e.nw.Lookup("j").PNode.parent // the (b ^k <k>) join
					for i := 0; i < k; i++ {
						e.add(e.wmeOf("a", "k", "x"))
						e.add(e.wmeOf("b", "k", "x"))
					}
					// One fresh activation per call (AllocsPerRun makes one
					// more than runs); each stores an entry nobody else scans,
					// all of them on one line.
					tasks := make([]*Task, runs+1)
					for i := range tasks {
						if c.dir == DirRight {
							tasks[i] = &Task{Node: j, Dir: DirRight, Op: wme.Add, W: e.wmeOf("b", "k", c.key)}
						} else {
							tasks[i] = &Task{Node: j, Dir: dirLeft, Op: wme.Add, tok: Extend(DummyTop, 0, e.wmeOf("a", "k", c.key))}
						}
					}
					removes := make([]*Task, len(tasks))
					for i, add := range tasks {
						rm := *add
						rm.Op = wme.Remove
						if c.dir == dirLeft {
							rm.tok, rm.W, rm.ce = DummyTop, add.tok.w, add.tok.ce
						}
						removes[i] = &rm
					}
					// Store and remove them all once, so the line has grown to
					// the size the measured activations need; a measured
					// remove finds its entry stored again.
					s := &poolSched{}
					for _, task := range tasks {
						e.nw.Exec(task, s)
					}
					for _, task := range removes {
						e.nw.Exec(task, s)
					}
					measured := tasks
					if c.op == wme.Remove {
						for _, task := range tasks {
							e.nw.Exec(task, s)
						}
						measured = removes
					}
					i := 0
					got := testing.AllocsPerRun(runs, func() {
						e.nw.Exec(measured[i], s)
						i++
					})
					matches := 0
					if c.key == "x" {
						matches = k
					}
					want := float64(matches)
					if c.op == wme.Remove {
						want = 0
					}
					if got != want {
						t.Fatalf("a %s %s activation with %d matches allocates %v objects, want %v",
							c.dir, c.op, matches, got, want)
					}
					if n := e.nw.Mem.Tombstones(); n != 0 {
						t.Fatalf("%d tombstones: a remove missed its stored entry", n)
					}
				})
			}
		}
	}
}

// TestSuppressedRunsSpill drives the emitter's suppressed-run stack past its
// inline buffer. A run is pushed per child join whose right memory is empty,
// and executing one pushes nothing more (its right memory is still empty),
// so the stack's depth is the fan-out below one emitting node: here
// 2*suppInline+1 productions share their first join, and each goes on to a
// class that holds no wmes when the shared wme arrives. The conflict set
// after every step must equal the one with unlinking off.
func TestSuppressedRunsSpill(t *testing.T) {
	const fan = 2*suppInline + 1
	var src strings.Builder
	src.WriteString("(literalize a k)\n")
	for i := 0; i < fan; i++ {
		fmt.Fprintf(&src, "(literalize b%d k m)\n(p p%d (a ^k <k>) (b%d ^k <k> ^m <m>) -(b%d ^m <k>) --> (make o))\n", i, i, i, i)
	}
	type step struct {
		remove bool
		class  string
		kv     []any
	}
	var steps []step
	for _, k := range []string{"x", "y"} {
		steps = append(steps, step{class: "a", kv: []any{"k", k}})
	}
	for i := 0; i < fan; i += 3 {
		steps = append(steps, step{class: fmt.Sprintf("b%d", i), kv: []any{"k", "x", "m", "z"}})
	}
	steps = append(steps, step{class: "a", kv: []any{"k", "z"}}, step{remove: true, class: "a", kv: []any{"k", "x"}})

	run := func(unlink bool) [][]string {
		opts := DefaultOptions()
		opts.Unlink = unlink
		e := newEnvOpts(t, src.String(), opts)
		shared := e.nw.Lookup("p0").PNode.parent.parent.parent
		if n := len(e.nw.childrenOf(shared)); n != fan {
			t.Fatalf("the shared join has %d children, want %d", n, fan)
		}
		live := map[string]*wme.WME{}
		var got [][]string
		for i, st := range steps {
			key := fmt.Sprint(st.class, st.kv)
			before := e.nw.Stats.NullSuppressed.Load()
			if st.remove {
				e.remove(live[key])
			} else {
				live[key] = e.wmeOf(st.class, st.kv...)
				e.add(live[key])
			}
			if unlink && i == 0 {
				if n := e.nw.Stats.NullSuppressed.Load() - before; n != fan {
					t.Fatalf("the first wme suppressed %d left activations, want all %d", n, fan)
				}
			}
			got = append(got, e.cs.keys())
			auditClean(t, e)
		}
		return got
	}
	on, off := run(true), run(false)
	for i := range steps {
		if fmt.Sprint(on[i]) != fmt.Sprint(off[i]) {
			t.Fatalf("step %d: unlink=true CS %v, unlink=false %v", i, on[i], off[i])
		}
	}
	matched := false
	for _, cs := range on {
		matched = matched || len(cs) > 0
	}
	if !matched {
		t.Fatal("no production ever matched: the stream does not exercise the joins")
	}
}
