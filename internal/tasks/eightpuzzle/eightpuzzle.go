// Package eightpuzzle builds the Eight-Puzzle-Soar task of the paper: the
// classic 3×3 sliding-tile puzzle encoded as a Soar problem space. Operator
// proposals create tie impasses; a selection subgoal evaluates the tied
// moves against the goal configuration (Manhattan-distance tables encoded
// as static wmes) and returns best/worst/indifferent preferences to the
// supergoal — the results chunking turns into move-selection chunks.
package eightpuzzle

import (
	"fmt"
	"strings"

	"soarpsme/internal/soar"
)

// Board is a 3×3 tile layout: Board[row][col] holds tile number 1..8, or 0
// for the blank.
type Board [3][3]int

// Goal is the target configuration: tiles 1..8 in row-major order with the
// blank in the bottom-right corner.
var Goal = Board{{1, 2, 3}, {4, 5, 6}, {7, 8, 0}}

// cellName returns the static cell identifier for (row, col).
func cellName(r, c int) string { return fmt.Sprintf("c%d%d", r+1, c+1) }

func tileName(t int) string { return fmt.Sprintf("t%d", t) }

// goalPos returns the target (row, col) of a tile.
func goalPos(t int) (int, int) {
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if Goal[r][c] == t {
				return r, c
			}
		}
	}
	return 2, 2
}

func manhattan(r, c, t int) int {
	gr, gc := goalPos(t)
	d := r - gr
	if d < 0 {
		d = -d
	}
	e := c - gc
	if e < 0 {
		e = -e
	}
	return d + e
}

// Scramble returns a board k reverse moves away from Goal, using a small
// deterministic LCG so tasks are reproducible; moves that immediately undo
// the previous one are skipped.
func Scramble(k int, seed uint64) Board {
	b := Goal
	br, bc := 2, 2
	lr, lc := -1, -1
	rng := seed*2862933555777941757 + 3037000493
	for n := 0; n < k; {
		rng = rng*2862933555777941757 + 3037000493
		dirs := [4][2]int{{0, 1}, {0, -1}, {1, 0}, {-1, 0}}
		d := dirs[(rng>>33)%4]
		nr, nc := br+d[0], bc+d[1]
		if nr < 0 || nr > 2 || nc < 0 || nc > 2 || (nr == lr && nc == lc) {
			continue
		}
		b[br][bc], b[nr][nc] = b[nr][nc], 0
		lr, lc = br, bc
		br, bc = nr, nc
		n++
	}
	return b
}

// Task builds the Soar task for an initial board.
func Task(start Board) *soar.Task {
	var sb strings.Builder
	sb.WriteString(`
; Eight-Puzzle-Soar: problem-space productions.
(literalize cell id adj)
(literalize dist cell tile d)
(literalize tile-goal tile cell)
(literalize binding state cell tile)
(literalize blank state cell)
(literalize op id from tile to)
(literalize newstate op id old g)
(literalize lastmove state tile)
`)
	// Static wmes: adjacency, distance tables, goal positions, start state.
	sb.WriteString("(startup\n")
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if r+1 < 3 {
				fmt.Fprintf(&sb, "  (make cell ^id %s ^adj %s)\n", cellName(r, c), cellName(r+1, c))
				fmt.Fprintf(&sb, "  (make cell ^id %s ^adj %s)\n", cellName(r+1, c), cellName(r, c))
			}
			if c+1 < 3 {
				fmt.Fprintf(&sb, "  (make cell ^id %s ^adj %s)\n", cellName(r, c), cellName(r, c+1))
				fmt.Fprintf(&sb, "  (make cell ^id %s ^adj %s)\n", cellName(r, c+1), cellName(r, c))
			}
			for t := 1; t <= 8; t++ {
				fmt.Fprintf(&sb, "  (make dist ^cell %s ^tile %s ^d %d)\n", cellName(r, c), tileName(t), manhattan(r, c, t))
			}
		}
	}
	for t := 1; t <= 8; t++ {
		gr, gc := goalPos(t)
		fmt.Fprintf(&sb, "  (make tile-goal ^tile %s ^cell %s)\n", tileName(t), cellName(gr, gc))
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if start[r][c] == 0 {
				fmt.Fprintf(&sb, "  (make blank ^state s0 ^cell %s)\n", cellName(r, c))
			} else {
				fmt.Fprintf(&sb, "  (make binding ^state s0 ^cell %s ^tile %s)\n", cellName(r, c), tileName(start[r][c]))
			}
		}
	}
	sb.WriteString(")\n")

	sb.WriteString(`
; Propose one operator per tile adjacent to the blank.
(p ep*propose-move
  (context ^goal-id <g> ^slot problem-space ^value eight-puzzle)
  (context ^goal-id <g> ^slot state ^value <s>)
  (blank ^state <s> ^cell <b>)
  (cell ^id <c> ^adj <b>)
  (binding ^state <s> ^cell <c> ^tile <t>)
  -->
  (bind <o>)
  (make op ^id <o> ^from <c> ^tile <t> ^to <b>)
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind acceptable ^ref <s>))

; Apply the selected operator: build the successor state.
(p ep*apply-move
  (context ^goal-id <g> ^slot operator ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^from <c> ^tile <t> ^to <b>)
  -->
  (bind <ns>)
  (make newstate ^op <o> ^id <ns> ^old <s> ^g <g>)
  (make binding ^state <ns> ^cell <b> ^tile <t>)
  (make blank ^state <ns> ^cell <c>)
  (make lastmove ^state <ns> ^tile <t>))

(p ep*copy-binding
  (newstate ^op <o> ^id <ns> ^old <s>)
  (op ^id <o> ^from <c>)
  (binding ^state <s> ^cell { <> <c> <oc> } ^tile <ot>)
  -->
  (make binding ^state <ns> ^cell <oc> ^tile <ot>))

(p ep*newstate-preference
  (newstate ^op <o> ^id <ns> ^old <s> ^g <g>)
  -->
  (make preference ^goal-id <g> ^object <ns> ^role state ^kind acceptable ^ref <s>))

; Never undo the move that produced the current state: moving the same
; tile again can only slide it back.
(p ep*reject-undo
  (context ^goal-id <g> ^slot state ^value <s>)
  (lastmove ^state <s> ^tile <t>)
  (op ^id <o> ^tile <t>)
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind reject ^ref <s>))

; Selection subgoal: evaluate each tied move against the distance tables.
; The full board position participates in the evaluation (the snapshot
; CEs), so the chunks these productions produce are specific to the
; configuration and 2-3x larger than the task productions — the
; "expensive chunks" shape the paper discusses (§6.2, [20]).
(p ep*eval-closer
  (goal ^id <sub> ^supergoal <g> ^impasse tie ^role operator)
  (item ^goal-id <sub> ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^from <c> ^tile <t> ^to <b>)
  (binding ^state <s> ^tile t1 ^cell <p1>)
  (binding ^state <s> ^tile t2 ^cell <p2>)
  (binding ^state <s> ^tile t3 ^cell <p3>)
  (binding ^state <s> ^tile t4 ^cell <p4>)
  (binding ^state <s> ^tile t5 ^cell <p5>)
  (binding ^state <s> ^tile t6 ^cell <p6>)
  (binding ^state <s> ^tile t7 ^cell <p7>)
  (binding ^state <s> ^tile t8 ^cell <p8>)
  (dist ^cell <c> ^tile <t> ^d <d1>)
  (dist ^cell <b> ^tile <t> ^d { <d2> < <d1> })
  (blank ^state <s> ^cell <b>)
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind best ^ref <s>))

(p ep*eval-farther
  (goal ^id <sub> ^supergoal <g> ^impasse tie ^role operator)
  (item ^goal-id <sub> ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^from <c> ^tile <t> ^to <b>)
  (binding ^state <s> ^tile t1 ^cell <p1>)
  (binding ^state <s> ^tile t2 ^cell <p2>)
  (binding ^state <s> ^tile t3 ^cell <p3>)
  (binding ^state <s> ^tile t4 ^cell <p4>)
  (binding ^state <s> ^tile t5 ^cell <p5>)
  (binding ^state <s> ^tile t6 ^cell <p6>)
  (binding ^state <s> ^tile t7 ^cell <p7>)
  (binding ^state <s> ^tile t8 ^cell <p8>)
  (dist ^cell <c> ^tile <t> ^d <d1>)
  (dist ^cell <b> ^tile <t> ^d { <d2> > <d1> })
  (blank ^state <s> ^cell <b>)
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind worst ^ref <s>))

(p ep*eval-indifferent
  (goal ^id <sub> ^supergoal <g> ^impasse tie ^role operator)
  (item ^goal-id <sub> ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^from <c> ^tile <t> ^to <b>)
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind indifferent ^ref <s>))

; Success: every tile on its goal cell.
(p ep*solved
  (context ^goal-id <g> ^slot state ^value <s>)
`)
	for t := 1; t <= 8; t++ {
		gr, gc := goalPos(t)
		fmt.Fprintf(&sb, "  (binding ^state <s> ^cell %s ^tile %s)\n", cellName(gr, gc), tileName(t))
	}
	sb.WriteString(`  -->
  (halt))
`)
	return &soar.Task{
		Name:         "eight-puzzle",
		Source:       sb.String(),
		ProblemSpace: "eight-puzzle",
		InitialState: "s0",
	}
}

// Default returns the task instance used by the experiments: a scramble the
// agent solves under all three run modes — without chunking, during
// chunking, and after chunking (verified by the task tests).
func Default() *soar.Task { return Task(Scramble(20, 3)) }

// Instances returns the experiment pool: boards the agent solves under all
// three run modes, in increasing run length. Running them in sequence
// (accumulating chunks) approximates the paper's full Eight-Puzzle-Soar
// run length.
func Instances() []Board {
	return []Board{
		Scramble(12, 18),
		Scramble(16, 8),
		Scramble(20, 22),
		Scramble(24, 8),
		Scramble(20, 3),
	}
}
