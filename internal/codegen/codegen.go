// Package codegen is the run-time code generator of Soar/PSM-E (§5.1),
// retargeted from NS32032 machine code to a portable token-VM instruction
// set. PSM-E compiled each production to inline-expanded machine code and
// integrated newly added chunks into the running network through a
// jumptable — an indirection table with one entry per spliceable code
// position, so adding a successor node is two table assignments.
//
// This package reproduces that design's observable behaviour: per-node
// instruction streams with inline-expanded join tests (whose encoded size
// reproduces the paper's ~250 bytes per two-input node, Table 5-1), a
// jumptable whose entry count and splice operations model the integration
// step (its match-time overhead is the indirect jumps, §5.1), and compile
// timing with and without sharing (Table 5-2).
package codegen

import (
	"fmt"

	"soarpsme/internal/rete"
	"soarpsme/internal/value"
)

// OpCode is a token-VM operation.
type OpCode uint8

// The instruction set. The encodings (see Size) are nominal NS32032-style
// byte counts: opcode + operand bytes.
const (
	OpLabel      OpCode = iota // code position marker
	OpHashField                // fold one field into the line hash
	OpLockLine                 // acquire the hash-line lock
	OpUnlock                   // release it
	OpInsert                   // insert token/wme into the line
	OpRemove                   // remove (or tombstone)
	OpScanOpp                  // loop head: scan the opposite memory
	OpLoadLeft                 // load a left-token field
	OpLoadRight                // load a right-wme field
	OpCompare                  // apply a predicate
	OpBranchFail               // skip pair on failed test
	OpExtendTok                // build the extended token
	OpPushTask                 // queue a successor activation
	OpJumpTable                // indirect jump through the jumptable
	OpCountAdj                 // adjust a not/NCC match count
	OpUpdateCS                 // conflict-set insert/retract
	OpReturn                   // end of node code
)

// Size returns the encoded size of an opcode in bytes.
func Size(op OpCode) int {
	switch op {
	case OpLabel:
		return 0
	case OpHashField, OpLoadLeft, OpLoadRight:
		return 10
	case OpLockLine, OpUnlock:
		return 8
	case OpInsert, OpRemove:
		return 14
	case OpScanOpp:
		return 18
	case OpCompare:
		return 10
	case OpBranchFail:
		return 6
	case OpExtendTok:
		return 20
	case OpPushTask:
		return 16
	case OpJumpTable:
		return 8
	case OpCountAdj:
		return 14
	case OpUpdateCS:
		return 22
	case OpReturn:
		return 4
	}
	return 8
}

// NodeCode is the compiled stream for one node. Only the opcodes are kept:
// the encoded size, not the operands, is what the paper measures.
type NodeCode struct {
	Node   rete.NodeID
	Kind   rete.BetaKind
	Instrs []OpCode
}

// Bytes returns the encoded size of the node's code.
func (nc *NodeCode) Bytes() int {
	n := 0
	for _, op := range nc.Instrs {
		n += Size(op)
	}
	return n
}

// CompileNode emits the inline-expanded code for one two-input or P node,
// mirroring PSM-E's open-coded join bodies.
func CompileNode(n *rete.BetaNode) *NodeCode {
	nc := &NodeCode{Node: n.ID, Kind: n.Kind}
	emit := func(op OpCode) { nc.Instrs = append(nc.Instrs, op) }
	emit(OpLabel)
	if n.Kind == rete.KindP {
		emit(OpLockLine)
		emit(OpInsert)
		emit(OpUnlock)
		emit(OpUpdateCS)
		emit(OpReturn)
		return nc
	}
	tests := n.Tests
	nEq := 0
	for _, t := range tests {
		if t.Pred == value.PredEq {
			nEq++
		}
	}
	// Hash the equality-test bindings, lock, insert self.
	for i := 0; i < nEq; i++ {
		emit(OpHashField)
	}
	for range n.BBTests {
		emit(OpHashField)
	}
	emit(OpLockLine)
	emit(OpInsert)
	// Scan the opposite memory; every test is open-coded twice (left and
	// right activation bodies are both generated, as in PSM-E).
	for side := 0; side < 2; side++ {
		emit(OpScanOpp)
		for range tests {
			emit(OpLoadLeft)
			emit(OpLoadRight)
			emit(OpCompare)
			emit(OpBranchFail)
		}
		for range n.BBTests {
			emit(OpLoadLeft)
			emit(OpLoadRight)
			emit(OpCompare)
			emit(OpBranchFail)
		}
		if n.Kind == rete.KindNot || n.Kind == rete.KindNCC || n.Kind == rete.KindNCCPartner {
			emit(OpCountAdj)
		} else {
			emit(OpExtendTok)
		}
		// Successor dispatch goes through the jumptable so later
		// productions can splice new successors in (Figure 5-1).
		emit(OpPushTask)
		emit(OpJumpTable)
	}
	emit(OpUnlock)
	emit(OpReturn)
	return nc
}

// Jumptable models the indirection table of Figure 5-1: one entry per
// spliceable code position (one per node with successors; multiple
// successors share a single entry, §5.1 point 2).
type Jumptable struct {
	entries map[rete.NodeID]int // node -> chain length (queued successors)
	splices int
}

// NewJumptable returns an empty table.
func NewJumptable() *Jumptable {
	return &Jumptable{entries: make(map[rete.NodeID]int)}
}

// Splice integrates a new successor under parent: the new node's entry
// takes the parent's old continuation and the parent's entry now queues
// the new node first — two assignments, exactly the mechanism of §5.1.
func (j *Jumptable) Splice(parent, child rete.NodeID) {
	j.entries[child] = j.entries[parent] // Jumptable[100] := Jumptable[50]
	j.entries[parent]++                  // Jumptable[50] := queue-child code
	j.splices++
}

// Len returns the number of table entries.
func (j *Jumptable) Len() int { return len(j.entries) }

// Splices returns how many run-time integrations have occurred.
func (j *Jumptable) Splices() int { return j.splices }

// OverheadFraction models the match-time cost of jumptable indirection:
// one OpJumpTable per successor dispatch relative to the node body. The
// paper measured 1-3%.
func (j *Jumptable) OverheadFraction(avgNodeBytes float64) float64 {
	if avgNodeBytes <= 0 {
		return 0
	}
	return float64(Size(OpJumpTable)) / avgNodeBytes
}

// Result summarizes compiling one production.
type Result struct {
	Prod       string
	NewNodes   int
	TwoInput   int
	Bytes      int
	PerNode    []*NodeCode
	BytesPer2I float64
}

// CompileProduction emits code for every node a production addition
// created and splices the new nodes into the jumptable.
func CompileProduction(info *rete.AddInfo, jt *Jumptable) *Result {
	res := &Result{Prod: info.Prod.Name, NewNodes: len(info.NewBeta)}
	for _, n := range info.NewBeta {
		nc := CompileNode(n)
		res.PerNode = append(res.PerNode, nc)
		res.Bytes += nc.Bytes()
		if n.Kind != rete.KindP {
			res.TwoInput++
		}
		parent := rete.NodeID(0)
		if n.Parent != nil {
			parent = n.Parent.ID
		}
		jt.Splice(parent, n.ID)
	}
	if res.TwoInput > 0 {
		res.BytesPer2I = float64(res.Bytes) / float64(res.TwoInput)
	}
	return res
}

// String renders a short summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s: %d nodes, %d bytes (%.0f B / 2-input node)",
		r.Prod, r.NewNodes, r.Bytes, r.BytesPer2I)
}
