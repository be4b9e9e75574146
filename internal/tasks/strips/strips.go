// Package strips builds the Strips-Soar task of the paper: planning in the
// Fikes-Nilsson robot domain [1] — a robot pushing boxes between rooms
// connected by doors. Operator proposals tie; a selection subgoal evaluates
// moves and pushes against precomputed room-distance tables and returns
// preferences to the supergoal, which chunking caches. The domain uses a
// conjunctive negation (the Soar LHS extension of §3) to identify the
// nearest misplaced box, and includes a Monitor-Strips-State production
// with a long CE chain in the style of Figure 6-7.
package strips

import (
	"fmt"
	"strings"

	"soarpsme/internal/soar"
)

// layout describes a Strips world: a grid of rooms, boxes with start and
// goal rooms, and the robot's start room.
type layout struct {
	rows, cols int
	robot      string
	boxes      []box
}

// box is one box: its name, start room and goal room.
type box struct {
	name, start, goal string
}

// room returns the room name at grid position (r, c), 1-based.
func room(r, c int) string { return fmt.Sprintf("r%d%d", r, c) }

// defaultLayout is the experiment world: a 3×3 room grid, twelve doors,
// three boxes to deliver.
func defaultLayout() layout {
	return layout{
		rows:  3,
		cols:  3,
		robot: room(2, 2),
		boxes: []box{
			{name: "box1", start: room(1, 3), goal: room(3, 1)},
			{name: "box2", start: room(3, 3), goal: room(1, 1)},
			{name: "box3", start: room(2, 1), goal: room(2, 3)},
		},
	}
}

// doors enumerates the door connections of the grid (both directions).
func (l layout) doors() [][2]string {
	var out [][2]string
	for r := 1; r <= l.rows; r++ {
		for c := 1; c <= l.cols; c++ {
			if r < l.rows {
				out = append(out, [2]string{room(r, c), room(r+1, c)})
				out = append(out, [2]string{room(r+1, c), room(r, c)})
			}
			if c < l.cols {
				out = append(out, [2]string{room(r, c), room(r, c+1)})
				out = append(out, [2]string{room(r, c+1), room(r, c)})
			}
		}
	}
	return out
}

// task builds the Soar task for a layout.
func task(l layout) *soar.Task {
	var sb strings.Builder
	sb.WriteString(`
; Strips-Soar: robot planning productions.
(literalize door id from to)
(literalize rdist from to d)
(literalize box-goal box room)
(literalize at state obj room)
(literalize door-open state door status)
(literalize op id kind obj from to)
(literalize newstate op id old g)
(literalize lastmove state obj room)
(literalize monitored state)
`)
	// Static wmes.
	sb.WriteString("(startup\n")
	doorName := func(a, b string) string { return "d-" + a + "-" + b }
	var doorIDs []string
	for _, d := range l.doors() {
		id := doorName(d[0], d[1])
		doorIDs = append(doorIDs, id)
		fmt.Fprintf(&sb, "  (make door ^id %s ^from %s ^to %s)\n", id, d[0], d[1])
	}
	// Room distances (grid BFS = Manhattan on a full grid).
	for r1 := 1; r1 <= l.rows; r1++ {
		for c1 := 1; c1 <= l.cols; c1++ {
			for r2 := 1; r2 <= l.rows; r2++ {
				for c2 := 1; c2 <= l.cols; c2++ {
					d := abs(r1-r2) + abs(c1-c2)
					fmt.Fprintf(&sb, "  (make rdist ^from %s ^to %s ^d %d)\n", room(r1, c1), room(r2, c2), d)
				}
			}
		}
	}
	for _, b := range l.boxes {
		fmt.Fprintf(&sb, "  (make box-goal ^box %s ^room %s)\n", b.name, b.goal)
		fmt.Fprintf(&sb, "  (make at ^state s0 ^obj %s ^room %s)\n", b.name, b.start)
	}
	fmt.Fprintf(&sb, "  (make at ^state s0 ^obj robby-the-robot ^room %s)\n", l.robot)
	for _, id := range doorIDs {
		fmt.Fprintf(&sb, "  (make door-open ^state s0 ^door %s ^status open)\n", id)
	}
	sb.WriteString(")\n")

	body := `
; Propose moving the robot through an open door.
(p st*propose-move
  (context ^goal-id <g> ^slot problem-space ^value strips)
  (context ^goal-id <g> ^slot state ^value <s>)
  (at ^state <s> ^obj robby-the-robot ^room <r1>)
  (door ^id <d> ^from <r1> ^to <r2>)
  (door-open ^state <s> ^door <d> ^status open)
  -->
  (bind <o>)
  (make op ^id <o> ^kind move ^obj robby-the-robot ^from <r1> ^to <r2>)
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind acceptable ^ref <s>))

; Propose pushing a misplaced box in the robot's room through an open door.
(p st*propose-push
  (context ^goal-id <g> ^slot problem-space ^value strips)
  (context ^goal-id <g> ^slot state ^value <s>)
  (at ^state <s> ^obj robby-the-robot ^room <r1>)
  (box-goal ^box <b> ^room <gr>)
  (at ^state <s> ^obj <b> ^room { <> <gr> <r1> })
  (door ^id <d> ^from <r1> ^to <r2>)
  (door-open ^state <s> ^door <d> ^status open)
  -->
  (bind <o>)
  (make op ^id <o> ^kind push ^obj <b> ^from <r1> ^to <r2>)
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind acceptable ^ref <s>))

; Apply a move: robot changes rooms; everything else copies.
(p st*apply-move
  (context ^goal-id <g> ^slot operator ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^kind move ^from <r1> ^to <r2>)
  -->
  (bind <ns>)
  (make newstate ^op <o> ^id <ns> ^old <s> ^g <g>)
  (make at ^state <ns> ^obj robby-the-robot ^room <r2>)
  (make lastmove ^state <ns> ^obj robby-the-robot ^room <r1>))

(p st*apply-move-copy-at
  (newstate ^op <o> ^id <ns> ^old <s>)
  (op ^id <o> ^kind move)
  (at ^state <s> ^obj { <> robby-the-robot <ob> } ^room <r>)
  -->
  (make at ^state <ns> ^obj <ob> ^room <r>))

; Apply a push: robot and box change rooms together.
(p st*apply-push
  (context ^goal-id <g> ^slot operator ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^kind push ^obj <b> ^from <r1> ^to <r2>)
  -->
  (bind <ns>)
  (make newstate ^op <o> ^id <ns> ^old <s> ^g <g>)
  (make at ^state <ns> ^obj robby-the-robot ^room <r2>)
  (make at ^state <ns> ^obj <b> ^room <r2>)
  (make lastmove ^state <ns> ^obj <b> ^room <r1>))

(p st*apply-push-copy-at
  (newstate ^op <o> ^id <ns> ^old <s>)
  (op ^id <o> ^kind push ^obj <b>)
  (at ^state <s> ^obj { <> robby-the-robot <> <b> <ob> } ^room <r>)
  -->
  (make at ^state <ns> ^obj <ob> ^room <r>))

; Doors copy unchanged for both operator kinds.
(p st*apply-copy-doors
  (newstate ^op <o> ^id <ns> ^old <s>)
  (door-open ^state <s> ^door <d> ^status <st>)
  -->
  (make door-open ^state <ns> ^door <d> ^status <st>))

(p st*newstate-preference
  (newstate ^op <o> ^id <ns> ^old <s> ^g <g>)
  -->
  (make preference ^goal-id <g> ^object <ns> ^role state ^kind acceptable ^ref <s>))

; Never immediately undo the previous move/push.
(p st*reject-undo
  (context ^goal-id <g> ^slot state ^value <s>)
  (lastmove ^state <s> ^obj <ob> ^room <r>)
  (op ^id <o> ^obj <ob> ^to <r>)
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind reject ^ref <s>))

; Selection subgoal: pushes toward the box's goal room are best, away are
; worst.
(p st*eval-push-closer
  (goal ^id <sub> ^supergoal <g> ^impasse tie ^role operator)
  (item ^goal-id <sub> ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^kind push ^obj <b> ^from <r1> ^to <r2>)
DOORSNAP  (box-goal ^box <b> ^room <gr>)
  (rdist ^from <r1> ^to <gr> ^d <d1>)
  (rdist ^from <r2> ^to <gr> ^d { <d2> < <d1> })
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind best ^ref <s>))

(p st*eval-push-farther
  (goal ^id <sub> ^supergoal <g> ^impasse tie ^role operator)
  (item ^goal-id <sub> ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^kind push ^obj <b> ^from <r1> ^to <r2>)
DOORSNAP  (box-goal ^box <b> ^room <gr>)
  (rdist ^from <r1> ^to <gr> ^d <d1>)
  (rdist ^from <r2> ^to <gr> ^d { <d2> > <d1> })
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind worst ^ref <s>))

; Robot moves are judged against the NEAREST misplaced box; the conjunctive
; negation (Soar's LHS extension) states "no other misplaced box is
; strictly closer".
(p st*eval-move-closer
  (goal ^id <sub> ^supergoal <g> ^impasse tie ^role operator)
  (item ^goal-id <sub> ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^kind move ^from <r1> ^to <r2>)
DOORSNAP  (box-goal ^box <b> ^room <gr>)
  (at ^state <s> ^obj <b> ^room { <> <gr> <rb> })
  (rdist ^from <r1> ^to <rb> ^d <d1>)
  -{ (box-goal ^box { <> <b> <b2> } ^room <gr2>)
     (at ^state <s> ^obj <b2> ^room { <> <gr2> <rb2> })
     (rdist ^from <r1> ^to <rb2> ^d < <d1>) }
  (rdist ^from <r2> ^to <rb> ^d { <d2> < <d1> })
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind best ^ref <s>))

(p st*eval-move-farther
  (goal ^id <sub> ^supergoal <g> ^impasse tie ^role operator)
  (item ^goal-id <sub> ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^kind move ^from <r1> ^to <r2>)
DOORSNAP  (box-goal ^box <b> ^room <gr>)
  (at ^state <s> ^obj <b> ^room { <> <gr> <rb> })
  (rdist ^from <r1> ^to <rb> ^d <d1>)
  -{ (box-goal ^box { <> <b> <b2> } ^room <gr2>)
     (at ^state <s> ^obj <b2> ^room { <> <gr2> <rb2> })
     (rdist ^from <r1> ^to <rb2> ^d < <d1>) }
  (rdist ^from <r2> ^to <rb> ^d { <d2> > <d1> })
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind worst ^ref <s>))

(p st*eval-indifferent
  (goal ^id <sub> ^supergoal <g> ^impasse tie ^role operator)
  (item ^goal-id <sub> ^value <o>)
  (context ^goal-id <g> ^slot state ^value <s>)
  (op ^id <o> ^kind <k>)
  -->
  (make preference ^goal-id <g> ^object <o> ^role operator ^kind indifferent ^ref <s>))
`
	// The evaluation productions match the status of every door (the
	// DOORSNAP marker), so their chunks carry the door snapshot — long
	// chains keyed on the state, the expensive-chunk shape of §6.2.
	var doorSnap strings.Builder
	for _, id := range doorIDs {
		fmt.Fprintf(&doorSnap, "  (door-open ^state <s> ^door %s ^status open)\n", id)
	}
	body = strings.ReplaceAll(body, "DOORSNAP", doorSnap.String())
	sb.WriteString(body)

	// Monitor-Strips-State: the paper's long-chain production (Figure 6-7),
	// matching the goal context, the robot, and the status of every door.
	sb.WriteString(`
(p st*monitor-strips-state
  (context ^goal-id <g> ^slot problem-space ^value strips)
  (context ^goal-id <g> ^slot state ^value <s>)
  (at ^state <s> ^obj robby-the-robot ^room <r>)
`)
	for _, id := range doorIDs {
		fmt.Fprintf(&sb, "  (door-open ^state <s> ^door %s ^status open)\n", id)
	}
	sb.WriteString(`  -->
  (make monitored ^state <s>))
`)

	// Success: every box delivered.
	sb.WriteString(`
(p st*solved
  (context ^goal-id <g> ^slot state ^value <s>)
`)
	for _, b := range l.boxes {
		fmt.Fprintf(&sb, "  (at ^state <s> ^obj %s ^room %s)\n", b.name, b.goal)
	}
	sb.WriteString(`  -->
  (halt))
`)
	return &soar.Task{
		Name:         "strips",
		Source:       sb.String(),
		ProblemSpace: "strips",
		InitialState: "s0",
	}
}

// Default returns the experiment instance.
func Default() *soar.Task { return task(defaultLayout()) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
