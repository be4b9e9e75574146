// Quickstart: load a small OPS5 program into the parallel match engine and
// run the recognize-act loop.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"soarpsme/internal/engine"
	"soarpsme/internal/prun"
)

// The paper's running example (Figure 2-1): find graspable blue blocks.
const program = `
(literalize block name color on state)
(literalize hand name state)

(startup
  (make block ^name b1 ^color blue)
  (make block ^name b2 ^color blue)
  (make block ^name b3 ^color red ^on b2)
  (make hand ^name robot-1-hand ^state free))

(p blue-block-is-graspable
  (block ^name <b> ^color blue ^state <> graspable)
  -(block ^on <b>)
  (hand ^state free)
  -->
  (write block <b> is graspable)
  (modify 1 ^state graspable))

(p done
  (block ^name b1 ^state graspable)
  -->
  (write done)
  (halt))
`

func main() {
	cfg := engine.DefaultConfig()
	cfg.Processes = 4            // four parallel match processes
	cfg.Policy = prun.MultiQueue // one task queue per process, with stealing
	cfg.Output = os.Stdout

	e := engine.New(cfg)
	if err := e.LoadProgram(program); err != nil {
		log.Fatal(err)
	}
	fired, err := e.RunOPS5()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fired %d productions; %d wmes in working memory\n", fired, e.WM.Len())

	fmt.Printf("match executed %d node activations over %d cycles\n", e.Totals.Tasks, e.Cycles())
}
