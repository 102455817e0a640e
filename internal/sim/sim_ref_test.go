package sim

import (
	"fmt"
	"math/rand"

	"emmver/internal/aig"
)

// The map-based simulator as it was before the dense rewrite, kept as the
// reference the differential tests compare Simulator to.

// refSimulator holds the mutable state of one simulation run.
type refSimulator struct {
	n       *aig.Netlist
	latches map[aig.NodeID]bool
	mems    []refMemState

	// per-cycle scratch
	vals   map[aig.NodeID]bool
	inputs map[aig.NodeID]bool

	cycle int
}

type refMemState struct {
	mem   *aig.Memory
	words []uint64
}

// newRef builds a simulator with latches at their reset values (InitX latches
// start at 0 unless overridden with SetLatch), zero/image memories at their
// declared contents, and arbitrary-init memories at 0 unless overridden
// with SetMemWord.
func newRef(n *aig.Netlist) *refSimulator {
	s := &refSimulator{
		n:       n,
		latches: make(map[aig.NodeID]bool),
	}
	for _, l := range n.Latches {
		s.latches[l.Node] = l.Init == aig.Init1
	}
	for _, m := range n.Memories {
		ms := refMemState{mem: m, words: make([]uint64, m.Words())}
		if m.Init == aig.MemImage {
			copy(ms.words, m.Image)
		}
		s.mems = append(s.mems, ms)
	}
	return s
}

// Cycle returns the number of completed Step calls.
func (s *refSimulator) Cycle() int { return s.cycle }

// SetLatch overrides a latch's current value (e.g. to replay an InitX
// witness).
func (s *refSimulator) SetLatch(id aig.NodeID, v bool) { s.latches[id] = v }

// LatchValue returns the current value of a latch node.
func (s *refSimulator) LatchValue(id aig.NodeID) bool { return s.latches[id] }

// SetMemWord overrides a memory word (e.g. to install an arbitrary-init
// witness image).
func (s *refSimulator) SetMemWord(memIndex int, addr int, word uint64) {
	s.mems[memIndex].words[addr] = word
}

// MemWord reads a memory word directly (bypassing ports).
func (s *refSimulator) MemWord(memIndex int, addr int) uint64 {
	return s.mems[memIndex].words[addr]
}

// Eval computes the current-cycle value of a literal given the input values
// installed by the ongoing Step (or Begin) call.
func (s *refSimulator) Eval(l aig.Lit) bool {
	v := s.evalNode(l.Node())
	if l.Inverted() {
		return !v
	}
	return v
}

func (s *refSimulator) evalNode(id aig.NodeID) bool {
	if v, ok := s.vals[id]; ok {
		return v
	}
	node := s.n.NodeAt(id)
	var v bool
	switch node.Kind {
	case aig.KConst:
		v = false
	case aig.KInput:
		v = s.inputs[id]
	case aig.KLatch:
		v = s.latches[id]
	case aig.KAnd:
		v = s.Eval(node.F0) && s.Eval(node.F1)
	case aig.KMemRead:
		v = s.evalMemRead(id)
	default:
		panic(fmt.Sprintf("sim: unknown node kind %v", node.Kind))
	}
	s.vals[id] = v
	return v
}

func (s *refSimulator) evalMemRead(id aig.NodeID) bool {
	for mi := range s.mems {
		ms := &s.mems[mi]
		for _, rp := range ms.mem.Reads {
			for bit, dn := range rp.Data {
				if dn != id {
					continue
				}
				addr := s.evalVec(rp.Addr)
				word := ms.words[addr]
				return word>>uint(bit)&1 == 1
			}
		}
	}
	panic("sim: memread node not found in any port")
}

func (s *refSimulator) evalVec(v []aig.Lit) uint64 {
	var out uint64
	for i, l := range v {
		if s.Eval(l) {
			out |= 1 << uint(i)
		}
	}
	return out
}

// EvalVec returns the numeric value of a bus in the current cycle.
func (s *refSimulator) EvalVec(v []aig.Lit) uint64 { return s.evalVec(v) }

// Begin installs input values and clears combinational memoization without
// advancing the clock, so Eval can inspect combinational functions of the
// current state and inputs.
func (s *refSimulator) Begin(inputs map[aig.NodeID]bool) {
	s.vals = make(map[aig.NodeID]bool, s.n.NumNodes())
	s.inputs = inputs
}

// Step advances the design one clock cycle with the given input values
// (missing inputs default to false). It evaluates all properties and
// constraints, applies memory writes, and updates latches.
func (s *refSimulator) Step(inputs map[aig.NodeID]bool) StepResult {
	s.vals = make(map[aig.NodeID]bool, s.n.NumNodes())
	s.inputs = inputs

	var res StepResult
	for _, p := range s.n.Props {
		res.PropOK = append(res.PropOK, s.Eval(p.OK))
	}
	res.ConstraintsOK = true
	for _, c := range s.n.Constraints {
		if !s.Eval(c) {
			res.ConstraintsOK = false
		}
	}

	// Evaluate next-state and write effects before committing anything.
	nextLatch := make(map[aig.NodeID]bool, len(s.n.Latches))
	for _, l := range s.n.Latches {
		nextLatch[l.Node] = s.Eval(l.Next)
	}
	type pendingWrite struct {
		mi   int
		addr uint64
		data uint64
	}
	var writes []pendingWrite
	for mi := range s.mems {
		for _, wp := range s.mems[mi].mem.Writes {
			if s.Eval(wp.En) {
				writes = append(writes, pendingWrite{
					mi:   mi,
					addr: s.evalVec(wp.Addr),
					data: s.evalVec(wp.Data),
				})
			}
		}
	}

	// Commit.
	for id, v := range nextLatch {
		s.latches[id] = v
	}
	for _, w := range writes {
		s.mems[w.mi].words[w.addr] = w.data
	}
	s.cycle++
	return res
}

// RandomInputs draws a full input assignment from rng.
func (s *refSimulator) RandomInputs(rng *rand.Rand) map[aig.NodeID]bool {
	in := make(map[aig.NodeID]bool, len(s.n.Inputs))
	for _, id := range s.n.Inputs {
		in[id] = rng.Intn(2) == 1
	}
	return in
}

// RandomizeState draws random latch values and memory contents, used by
// property tests that must explore from arbitrary states.
func (s *refSimulator) RandomizeState(rng *rand.Rand) {
	for _, l := range s.n.Latches {
		s.latches[l.Node] = rng.Intn(2) == 1
	}
	for mi := range s.mems {
		mask := uint64(1)<<uint(s.mems[mi].mem.DW) - 1
		if s.mems[mi].mem.DW == 64 {
			mask = ^uint64(0)
		}
		for a := range s.mems[mi].words {
			s.mems[mi].words[a] = rng.Uint64() & mask
		}
	}
}
