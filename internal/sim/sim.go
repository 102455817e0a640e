// Package sim is a cycle-accurate interpreter for aig netlists with
// concrete memory arrays. It serves two purposes:
//
//   - replaying BMC counter-examples on the un-abstracted design, so every
//     witness produced through EMM constraints is validated against real
//     memory semantics;
//   - randomized simulation in tests, cross-checking the symbolic engines.
//
// Memory semantics follow §2.3 of the paper: reads are asynchronous (data
// valid in the cycle the address is presented with the enable active), and
// writes become visible to reads in the following cycle.
package sim

import (
	"fmt"
	"math/rand"

	"emmver/internal/aig"
)

// Simulator holds the mutable state of one simulation run. Node values
// are node-indexed: a combinational value is current when its stamp
// equals the cycle's epoch, so starting a cycle clears every memoized
// value by bumping one counter.
type Simulator struct {
	n       *aig.Netlist
	latches []bool        // by node id; meaningful for latch nodes
	readRef []aig.ReadRef // by node id: the port of each read-data node
	mems    []memState

	// per-cycle scratch
	vals   []bool
	stamp  []uint32
	epoch  uint32
	inputs map[aig.NodeID]bool
	next   []bool         // next-state values, in n.Latches order
	writes []pendingWrite // enabled writes, in memory and port order

	cycle int
}

type memState struct {
	mem   *aig.Memory
	words []uint64
}

type pendingWrite struct {
	mi   int
	addr uint64
	data uint64
}

// New builds a simulator with latches at their reset values (InitX latches
// start at 0 unless overridden with SetLatch), zero/image memories at their
// declared contents, and arbitrary-init memories at 0 unless overridden
// with SetMemWord. The simulator is sized to n's nodes at New, so n must
// be complete by then.
func New(n *aig.Netlist) *Simulator {
	nn := n.NumNodes()
	s := &Simulator{
		n:       n,
		latches: make([]bool, nn),
		readRef: n.ReadRefs(),
		vals:    make([]bool, nn),
		stamp:   make([]uint32, nn),
		epoch:   1,
	}
	for _, l := range n.Latches {
		s.latches[l.Node] = l.Init == aig.Init1
	}
	for _, m := range n.Memories {
		ms := memState{mem: m, words: make([]uint64, m.Words())}
		if m.Init == aig.MemImage {
			copy(ms.words, m.Image)
		}
		s.mems = append(s.mems, ms)
	}
	return s
}

// Cycle returns the number of completed Step calls.
func (s *Simulator) Cycle() int { return s.cycle }

// SetLatch overrides a latch's current value (e.g. to replay an InitX
// witness).
func (s *Simulator) SetLatch(id aig.NodeID, v bool) { s.latches[id] = v }

// LatchValue returns the current value of a latch node.
func (s *Simulator) LatchValue(id aig.NodeID) bool { return s.latches[id] }

// SetMemWord overrides a memory word (e.g. to install an arbitrary-init
// witness image).
func (s *Simulator) SetMemWord(memIndex int, addr int, word uint64) {
	s.mems[memIndex].words[addr] = word
}

// MemWord reads a memory word directly (bypassing ports).
func (s *Simulator) MemWord(memIndex int, addr int) uint64 {
	return s.mems[memIndex].words[addr]
}

// Eval computes the current-cycle value of a literal given the input values
// installed by the ongoing Step (or Begin) call.
func (s *Simulator) Eval(l aig.Lit) bool {
	v := s.evalNode(l.Node())
	if l.Inverted() {
		return !v
	}
	return v
}

func (s *Simulator) evalNode(id aig.NodeID) bool {
	if s.stamp[id] == s.epoch {
		return s.vals[id]
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
	s.vals[id], s.stamp[id] = v, s.epoch
	return v
}

// evalMemRead returns read-data bit id: bit of mem[addr] at the port's
// current address, whatever the port's enable.
func (s *Simulator) evalMemRead(id aig.NodeID) bool {
	ref := s.readRef[id]
	ms := &s.mems[ref.Mem]
	rp := ms.mem.Reads[ref.Port]
	for bit, dn := range rp.Data {
		if dn == id {
			return ms.words[s.evalVec(rp.Addr)]>>uint(bit)&1 == 1
		}
	}
	panic("sim: memread node not found in any port")
}

func (s *Simulator) evalVec(v []aig.Lit) uint64 {
	var out uint64
	for i, l := range v {
		if s.Eval(l) {
			out |= 1 << uint(i)
		}
	}
	return out
}

// EvalVec returns the numeric value of a bus in the current cycle.
func (s *Simulator) EvalVec(v []aig.Lit) uint64 { return s.evalVec(v) }

// Begin installs input values and clears combinational memoization without
// advancing the clock, so Eval can inspect combinational functions of the
// current state and inputs.
func (s *Simulator) Begin(inputs map[aig.NodeID]bool) {
	s.inputs = inputs
	s.epoch++
	if s.epoch == 0 { // wrapped: no stamp may look current
		clear(s.stamp)
		s.epoch = 1
	}
}

// StepResult reports per-cycle observations.
type StepResult struct {
	PropOK        []bool // one per netlist property
	ConstraintsOK bool   // all environment constraints held
}

// Step advances the design one clock cycle with the given input values
// (missing inputs default to false). It evaluates all properties and
// constraints, applies memory writes, and updates latches.
func (s *Simulator) Step(inputs map[aig.NodeID]bool) StepResult {
	s.Begin(inputs)

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
	s.next = s.next[:0]
	for _, l := range s.n.Latches {
		s.next = append(s.next, s.Eval(l.Next))
	}
	s.writes = s.writes[:0]
	for mi := range s.mems {
		for _, wp := range s.mems[mi].mem.Writes {
			if s.Eval(wp.En) {
				s.writes = append(s.writes, pendingWrite{
					mi:   mi,
					addr: s.evalVec(wp.Addr),
					data: s.evalVec(wp.Data),
				})
			}
		}
	}

	// Commit.
	for i, l := range s.n.Latches {
		s.latches[l.Node] = s.next[i]
	}
	for _, w := range s.writes {
		s.mems[w.mi].words[w.addr] = w.data
	}
	s.cycle++
	return res
}

// RandomInputs draws a full input assignment from rng.
func (s *Simulator) RandomInputs(rng *rand.Rand) map[aig.NodeID]bool {
	in := make(map[aig.NodeID]bool, len(s.n.Inputs))
	for _, id := range s.n.Inputs {
		in[id] = rng.Intn(2) == 1
	}
	return in
}

// RandomizeState draws random latch values and memory contents, used by
// property tests that must explore from arbitrary states.
func (s *Simulator) RandomizeState(rng *rand.Rand) {
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
