// Package blocks builds a blocks-world Soar task whose operator
// *application* happens in a subgoal: the top space has no apply
// productions, so every selected move raises an operator no-change impasse
// (paper §3); the implementation subgoal constructs the successor state,
// and the scaffold-creating production's result becomes a chunk. After
// chunking, the application chunks fire directly in the top context and the
// no-change impasses disappear — learning away an entire class of subgoals.
package blocks

import (
	"fmt"
	"strings"

	"soarpsme/internal/soar"
)

// stack describes a world as bottom-to-top block lists per pile; block
// names are single lowercase words.
type stack [][]string

// defaultStart is c-on-b-on-a; the goal is the reversed tower a-on-b-on-c.
var defaultStart = stack{{"block-a", "block-b", "block-c"}}

// defaultGoal places block-a on block-b on block-c on the table.
var defaultGoal = [][2]string{
	{"block-c", "table"},
	{"block-b", "block-c"},
	{"block-a", "block-b"},
}

// task builds the Soar task for a start configuration and goal relation.
func task(start stack, goal [][2]string) *soar.Task {
	var sb strings.Builder
	sb.WriteString(`
; Blocks-world with operator-application subgoals.
(literalize block id)
(literalize goal-on a b)
(literalize on state obj under)
(literalize clear state obj)
(literalize op id obj to)
(literalize newstate op id old g)
`)
	blocks := map[string]bool{}
	sb.WriteString("(startup\n")
	for _, pile := range start {
		under := "table"
		for _, b := range pile {
			blocks[b] = true
			fmt.Fprintf(&sb, "  (make on ^state s0 ^obj %s ^under %s)\n", b, under)
			under = b
		}
		if len(pile) > 0 {
			fmt.Fprintf(&sb, "  (make clear ^state s0 ^obj %s)\n", pile[len(pile)-1])
		}
	}
	for b := range blocks {
		fmt.Fprintf(&sb, "  (make block ^id %s)\n", b)
	}
	for _, g := range goal {
		fmt.Fprintf(&sb, "  (make goal-on ^a %s ^b %s)\n", g[0], g[1])
	}
	sb.WriteString("  (make clear ^state s0 ^obj table))\n")

	sb.WriteString(`
; Propose moving a clear block onto a different clear destination.
(p bw*propose-move
  (context ^goal-id <g> ^slot problem-space ^value blocks)
  (context ^goal-id <g> ^slot state ^value <s>)
  (block ^id <x>)
  (clear ^state <s> ^obj <x>)
  (on ^state <s> ^obj <x> ^under <u>)
  (clear ^state <s> ^obj { <> <x> <> <u> <y> })
  -->
  (bind <o>)
  (make op ^id <o> ^obj <x> ^to <y>)
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind acceptable ^ref <s>))

; Selection subgoal: constructive moves are best — put x on its goal
; support once that support is itself correctly placed.
(p bw*eval-constructive
  (goal ^id <sub> ^supergoal <g> ^impasse tie ^role operator)
  (item ^goal-id <sub> ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^obj <x> ^to <y>)
  (goal-on ^a <x> ^b <y>)
  (on ^state <s> ^obj <y> ^under <yu>)
  (goal-on ^a <y> ^b <yu>)
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind best ^ref <s>))

(p bw*eval-constructive-table
  (goal ^id <sub> ^supergoal <g> ^impasse tie ^role operator)
  (item ^goal-id <sub> ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^obj <x> ^to table)
  (goal-on ^a <x> ^b table)
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind best ^ref <s>))

; Clearing moves: a misplaced block goes to the table.
(p bw*eval-unstack
  (goal ^id <sub> ^supergoal <g> ^impasse tie ^role operator)
  (item ^goal-id <sub> ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^obj <x> ^to table)
  (on ^state <s> ^obj <x> ^under <u>)
  (goal-on ^a <x> ^b { <> table <> <u> <gb> })
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind best ^ref <s>))

; Anything else is worst; everything gets an indifferent fallback.
(p bw*eval-nonconstructive
  (goal ^id <sub> ^supergoal <g> ^impasse tie ^role operator)
  (item ^goal-id <sub> ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^obj <x> ^to { <> table <y> })
  -{ (goal-on ^a <x> ^b <y>) }
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind worst ^ref <s>))

(p bw*eval-indifferent
  (goal ^id <sub> ^supergoal <g> ^impasse tie ^role operator)
  (item ^goal-id <sub> ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^obj <x>)
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind indifferent ^ref <s>))

; --- Operator application -----------------------------------------------
; There is no top-space apply production: selecting an operator stalls the
; decision cycle, the architecture raises an operator no-change impasse,
; and only this subgoal production can begin the application. Chunking
; summarizes it, and after learning the scaffold is built directly in the
; top context — no impasse.
(p bw*apply-begin
  (goal ^id <sub> ^supergoal <g> ^impasse no-change ^role operator)
  (context ^goal-id <g> ^slot operator ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^obj <x> ^to <y>)
  -->
  (bind <ns>)
  (make newstate ^op <o> ^id <ns> ^old <s> ^g <g>))

; The rest of the application keys off the scaffold and runs at any level.
(p bw*apply-move
  (newstate ^op <o> ^id <ns> ^old <s>)
  (op ^id <o> ^obj <x> ^to <y>)
  -->
  (make on ^state <ns> ^obj <x> ^under <y>)
  (make clear ^state <ns> ^obj table))

(p bw*apply-copy-on
  (newstate ^op <o> ^id <ns> ^old <s>)
  (op ^id <o> ^obj <x>)
  (on ^state <s> ^obj { <> <x> <b> } ^under <u>)
  -->
  (make on ^state <ns> ^obj <b> ^under <u>))

(p bw*apply-copy-clear
  (newstate ^op <o> ^id <ns> ^old <s>)
  (op ^id <o> ^to <y>)
  (clear ^state <s> ^obj { <> <y> <> table <b> })
  -->
  (make clear ^state <ns> ^obj <b>))

(p bw*apply-newly-clear
  (newstate ^op <o> ^id <ns> ^old <s>)
  (op ^id <o> ^obj <x>)
  (on ^state <s> ^obj <x> ^under { <> table <u> })
  -->
  (make clear ^state <ns> ^obj <u>))

(p bw*apply-done
  (newstate ^op <o> ^id <ns> ^old <s> ^g <g>)
  (on ^state <ns> ^obj <obj> ^under <u>)
  -->
  (make preference ^goal-id <g> ^object <ns> ^role state ^kind acceptable ^ref <s>))
`)
	// Success: every goal-on relation holds.
	sb.WriteString(`
(p bw*solved
  (context ^goal-id <g> ^slot state ^value <s>)
`)
	for _, g := range goal {
		fmt.Fprintf(&sb, "  (on ^state <s> ^obj %s ^under %s)\n", g[0], g[1])
	}
	sb.WriteString(`  -->
  (halt))
`)
	return &soar.Task{
		Name:         "blocks-world",
		Source:       sb.String(),
		ProblemSpace: "blocks",
		InitialState: "s0",
	}
}

// Default returns the three-block tower-reversal instance.
func Default() *soar.Task { return task(defaultStart, defaultGoal) }
