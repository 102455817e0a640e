package verilog

import (
	"math/rand"
	"os"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/bmc"
	"emmver/internal/designs"
	"emmver/internal/sim"
)

func loadQuicksort(t *testing.T, params map[string]uint64) *aig.Netlist {
	t.Helper()
	src, err := os.ReadFile("testdata/quicksort.v")
	if err != nil {
		t.Fatal(err)
	}
	file, err := Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	n, err := ElaborateWithParams(file, "quicksort", params)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// stateBits finds the state register bus.
func stateBits(n *aig.Netlist) []aig.Lit {
	var bits []aig.Lit
	for _, l := range n.Latches {
		if len(l.Name) >= 6 && l.Name[:6] == "state[" {
			bits = append(bits, aig.MkLit(l.Node, false))
		}
	}
	return bits
}

// TestVerilogQuicksortSorts elaborates the HDL and simulates concrete
// sorts against the Go oracle.
func TestVerilogQuicksortSorts(t *testing.T) {
	const checked = 13
	n := loadQuicksort(t, nil) // N=3, AW=3, DW=4
	st := stateBits(n)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		s := sim.New(n)
		in := make([]uint64, 3)
		for i := range in {
			in[i] = rng.Uint64() & 0xf
			s.SetMemWord(0, i, in[i]) // arr is the first declared memory
		}
		done := false
		for c := 0; c < 2000; c++ {
			s.Begin(nil)
			if s.EvalVec(st) == checked {
				done = true
				break
			}
			s.Step(nil)
		}
		if !done {
			t.Fatalf("trial %d: did not finish", trial)
		}
		want := designs.ReferenceSort(in)
		for i := range want {
			if got := s.MemWord(0, i); got != want[i] {
				t.Fatalf("trial %d: input %v: arr[%d]=%d want %d", trial, in, i, got, want[i])
			}
		}
	}
}

// TestVerilogQuicksortAgreesWithGoDesign cross-checks the HDL machine
// against the hand-built rtl machine cycle by cycle (same inputs: none —
// both are autonomous; compare sorted results and cycle counts).
func TestVerilogQuicksortAgreesWithGoDesign(t *testing.T) {
	cfg := designs.QuickSortConfig{N: 3, ArrayAW: 3, DataW: 4, StackAW: 3}
	rng := rand.New(rand.NewSource(3))
	n := loadQuicksort(t, nil)
	st := stateBits(n)
	for trial := 0; trial < 10; trial++ {
		in := make([]uint64, 3)
		for i := range in {
			in[i] = rng.Uint64() & 0xf
		}
		q := designs.NewQuickSort(cfg)
		goSorted, goCycles, err := q.SimulateSort(in, 2000)
		if err != nil {
			t.Fatal(err)
		}
		s := sim.New(n)
		for i, v := range in {
			s.SetMemWord(0, i, v)
		}
		vCycles := -1
		for c := 0; c < 2000; c++ {
			s.Begin(nil)
			if s.EvalVec(st) == 13 {
				vCycles = c
				break
			}
			s.Step(nil)
		}
		if vCycles < 0 {
			t.Fatalf("verilog machine did not finish")
		}
		for i := range goSorted {
			if s.MemWord(0, i) != goSorted[i] {
				t.Fatalf("results differ for %v", in)
			}
		}
		if vCycles != goCycles {
			t.Fatalf("cycle counts differ: verilog %d vs go %d", vCycles, goCycles)
		}
	}
}

// TestVerilogQuicksortProofs proves P1 and P2 on the elaborated HDL with
// EMM — the paper's actual methodology end to end.
func TestVerilogQuicksortProofs(t *testing.T) {
	n := loadQuicksort(t, map[string]uint64{"N": 3, "AW": 2, "DW": 3, "SW": 2})
	if len(n.Memories) != 2 {
		t.Fatalf("expected arr and stk memories, got %d", len(n.Memories))
	}
	for pi, p := range n.Props {
		r := bmc.Check(n, pi, bmc.Options{Engine: bmc.EngineBMC3, MaxDepth: 150})
		if r.Kind != bmc.KindProof {
			t.Fatalf("property %q: expected proof, got %v", p.Name, r)
		}
	}
}

// TestVerilogQuicksortPBADropsArray runs the Table 2 flow on the HDL
// version: P2's proof obligation must shed the array memory.
func TestVerilogQuicksortPBADropsArray(t *testing.T) {
	n := loadQuicksort(t, map[string]uint64{"N": 3, "AW": 2, "DW": 3, "SW": 2})
	p2 := -1
	for pi, p := range n.Props {
		if p.Name == "P2-stack-discipline" {
			p2 = pi
		}
	}
	if p2 < 0 {
		t.Fatalf("P2 not found")
	}
	res := bmc.ProveWithPBA(n, p2, bmc.Options{Engine: bmc.EngineBMC3, MaxDepth: 150, StabilityDepth: 8})
	if res.Kind() != bmc.KindProof {
		t.Fatalf("expected proof, got %v", res.Kind())
	}
	if res.Abs.MemEnabled[0] {
		t.Fatalf("array memory should be abstracted: %s", res.Abs)
	}
	if !res.Abs.MemEnabled[1] {
		t.Fatalf("stack memory must be kept: %s", res.Abs)
	}
}
