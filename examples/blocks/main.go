// Blocks world with operator-application subgoals: the top problem space
// cannot apply its own operators, so every move raises an operator
// no-change impasse (paper §3); the implementation subgoal builds the next
// state, chunking summarizes the step, and a re-run with the learned chunks
// applies operators directly — the impasses are learned away.
//
//	go run ./examples/blocks
package main

import (
	"bytes"
	"fmt"
	"log"
	"strings"

	"soarpsme/internal/engine"
	"soarpsme/internal/soar"
	"soarpsme/internal/tasks/blocks"
)

func run(label string, seed *soar.Agent) *soar.Agent {
	var trace bytes.Buffer
	cfg := soar.Config{Engine: engine.DefaultConfig(), Chunking: true, MaxDecisions: 100, Trace: &trace}
	agent, err := soar.New(cfg, blocks.Default())
	if err != nil {
		log.Fatal(err)
	}
	if seed != nil {
		n, err := agent.AdoptChunks(seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("transferred %d chunks\n", n)
	}
	res, err := agent.Run()
	if err != nil {
		log.Fatal(err)
	}
	impasses := strings.Count(trace.String(), "operator no-change impasse")
	fmt.Printf("%-16s solved=%-5v moves=%d decisions=%-3d application-subgoals=%d chunks-built=%d\n",
		label, res.Halted, res.OperatorDecisions, res.Decisions, impasses, res.ChunksBuilt)
	return agent
}

func main() {
	fmt.Println("task: reverse the tower c-on-b-on-a into a-on-b-on-c")
	fmt.Println()
	first := run("during-chunking", nil)
	run("after-chunking", first)
	fmt.Println("\nthe application chunks fire directly in the top context, so the")
	fmt.Println("operator no-change subgoals of the first run disappear.")
}
