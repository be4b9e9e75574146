// Package hanoi builds a Towers-of-Hanoi Soar task — one of the classic AI
// mini tasks the paper cites Soar being exercised on (§1). The encoding
// leans on the Soar LHS extensions: "disk d is the top of peg p" and "no
// smaller disk sits on the destination" are conjunctive negations over
// (smaller, on) pairs. The selection subgoal implements the optimal cyclic
// strategy (move the smallest disk cyclically; otherwise make the unique
// other legal move), so the run solves in exactly 2^n - 1 moves, learning
// move-selection chunks along the way.
package hanoi

import (
	"fmt"
	"strings"

	"soarpsme/internal/soar"
)

// Pegs are named p1, p2, p3; disks d1 (smallest) .. dN; the goal is to move
// the tower from p1 to p3.

func disk(i int) string { return fmt.Sprintf("d%d", i) }

// Task builds the Soar task for n disks (2..8).
func Task(n int) *soar.Task {
	if n < 2 {
		n = 2
	}
	if n > 8 {
		n = 8
	}
	var sb strings.Builder
	sb.WriteString(`
; Towers-of-Hanoi-Soar.
(literalize peg id)
(literalize smaller a b)
(literalize cycle from to)
(literalize on state disk peg)
(literalize lastdisk state disk)
(literalize op id disk from to)
(literalize newstate op id old g)
`)
	sb.WriteString("(startup\n")
	for _, p := range []string{"p1", "p2", "p3"} {
		fmt.Fprintf(&sb, "  (make peg ^id %s)\n", p)
	}
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			fmt.Fprintf(&sb, "  (make smaller ^a %s ^b %s)\n", disk(i), disk(j))
		}
		fmt.Fprintf(&sb, "  (make on ^state s0 ^disk %s ^peg p1)\n", disk(i))
	}
	// The smallest disk cycles p1->p3->p2 for odd n (tower ends on p3),
	// p1->p2->p3 for even n.
	if n%2 == 1 {
		sb.WriteString("  (make cycle ^from p1 ^to p3)\n  (make cycle ^from p3 ^to p2)\n  (make cycle ^from p2 ^to p1)\n")
	} else {
		sb.WriteString("  (make cycle ^from p1 ^to p2)\n  (make cycle ^from p2 ^to p3)\n  (make cycle ^from p3 ^to p1)\n")
	}
	sb.WriteString("  (make lastdisk ^state s0 ^disk none))\n")

	sb.WriteString(`
; Propose moving any top disk to any peg where no smaller disk sits.
(p th*propose-move
  (context ^goal-id <g> ^slot problem-space ^value hanoi)
  (context ^goal-id <g> ^slot state ^value <s>)
  (on ^state <s> ^disk <d> ^peg <p>)
  -{ (smaller ^a <d2> ^b <d>)
     (on ^state <s> ^disk <d2> ^peg <p>) }
  (peg ^id { <> <p> <q> })
  -{ (smaller ^a <d3> ^b <d>)
     (on ^state <s> ^disk <d3> ^peg <q>) }
  -->
  (bind <o>)
  (make op ^id <o> ^disk <d> ^from <p> ^to <q>)
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind acceptable ^ref <s>))

; Apply the selected move.
(p th*apply-move
  (context ^goal-id <g> ^slot operator ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^disk <d> ^from <p> ^to <q>)
  -->
  (bind <ns>)
  (make newstate ^op <o> ^id <ns> ^old <s> ^g <g>)
  (make on ^state <ns> ^disk <d> ^peg <q>)
  (make lastdisk ^state <ns> ^disk <d>))

(p th*apply-copy
  (newstate ^op <o> ^id <ns> ^old <s>)
  (op ^id <o> ^disk <d>)
  (on ^state <s> ^disk { <> <d> <od> } ^peg <op2>)
  -->
  (make on ^state <ns> ^disk <od> ^peg <op2>))

(p th*newstate-preference
  (newstate ^op <o> ^id <ns> ^old <s> ^g <g>)
  -->
  (make preference ^goal-id <g> ^object <ns> ^role state ^kind acceptable ^ref <s>))

; Selection subgoal: the optimal cyclic strategy.
; 1. If the smallest disk did not just move, move it along its cycle.
(p th*eval-smallest-cycles
  (goal ^id <sub> ^supergoal <g> ^impasse tie ^role operator)
  (item ^goal-id <sub> ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^disk d1 ^from <p> ^to <q>)
  (lastdisk ^state <s> ^disk <> d1)
  (cycle ^from <p> ^to <q>)
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind best ^ref <s>))

; ... but never against the cycle.
(p th*eval-smallest-wrong-way
  (goal ^id <sub> ^supergoal <g> ^impasse tie ^role operator)
  (item ^goal-id <sub> ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^disk d1 ^from <p> ^to <q>)
  (cycle ^from <p> ^to { <> <q> <r> })
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind worst ^ref <s>))

; 2. If the smallest disk just moved, make the unique other legal move.
(p th*eval-other-disk
  (goal ^id <sub> ^supergoal <g> ^impasse tie ^role operator)
  (item ^goal-id <sub> ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^disk { <> d1 <d> })
  (lastdisk ^state <s> ^disk d1)
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind best ^ref <s>))

; Never move the same disk twice in a row.
(p th*eval-no-repeat
  (goal ^id <sub> ^supergoal <g> ^impasse tie ^role operator)
  (item ^goal-id <sub> ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^disk <d>)
  (lastdisk ^state <s> ^disk <d>)
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind worst ^ref <s>))

(p th*eval-indifferent
  (goal ^id <sub> ^supergoal <g> ^impasse tie ^role operator)
  (item ^goal-id <sub> ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^disk <d>)
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind indifferent ^ref <s>))

; Success: the whole tower sits on p3.
(p th*solved
  (context ^goal-id <g> ^slot state ^value <s>)
`)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&sb, "  (on ^state <s> ^disk %s ^peg p3)\n", disk(i))
	}
	sb.WriteString(`  -->
  (halt))
`)
	return &soar.Task{
		Name:         "hanoi",
		Source:       sb.String(),
		ProblemSpace: "hanoi",
		InitialState: "s0",
	}
}

// Default returns the experiment instance (five disks, 31 moves).
func Default() *soar.Task { return Task(5) }
