// Strips-Soar: robot planning in the Fikes-Nilsson rooms/boxes/doors
// domain, comparing a during-chunking run with an after-chunking re-run —
// the learning-transfer experiment of the paper (§3, §6.3).
//
//	go run ./examples/strips
package main

import (
	"fmt"
	"log"

	"soarpsme/internal/engine"
	"soarpsme/internal/soar"
	"soarpsme/internal/tasks/strips"
)

func run(label string, seed *soar.Agent) *soar.Agent {
	cfg := soar.Config{Engine: engine.DefaultConfig(), Chunking: true, MaxDecisions: 300}
	cfg.Engine.Processes = 4
	agent, err := soar.New(cfg, strips.Default())
	if err != nil {
		log.Fatal(err)
	}
	if seed != nil {
		moved, err := agent.AdoptChunks(seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("transferred %d learned chunks into a fresh agent\n", moved)
	}
	res, err := agent.Run()
	if err != nil {
		log.Fatal(err)
	}
	tasks := 0
	for _, cs := range agent.Eng.CycleStats {
		tasks += cs.Tasks
	}
	fmt.Printf("%-16s solved=%-5v decisions=%-3d chunks-built=%-3d match-tasks=%d\n",
		label, res.Halted, res.Decisions, res.ChunksBuilt, tasks)
	return agent
}

func main() {
	l := strips.DefaultLayout()
	fmt.Printf("world: %dx%d rooms, robot at %s, %d boxes to deliver\n\n",
		l.Rows, l.Cols, l.Robot, len(l.Boxes))
	for _, b := range l.Boxes {
		fmt.Printf("  %s: %s -> %s\n", b.Name, b.Start, b.Goal)
	}
	fmt.Println()

	first := run("during-chunking", nil)
	second := run("after-chunking", first)
	_ = second
	fmt.Println("\nafter chunking, the learned move/push preferences fire directly in the")
	fmt.Println("top context, so tie impasses (and their selection subgoals) are avoided.")
}
