// Sortproof walks through the paper's quicksort case study (Tables 1 and
// 2) at laptop scale: it proves the sortedness property P1 and the
// stack-discipline property P2 by forward induction with EMM, compares
// against the Explicit Modeling baseline, and shows proof-based
// abstraction discovering that P2 does not depend on the array memory.
package main

import (
	"fmt"
	"time"

	"emmver"
	"emmver/internal/designs"
)

func main() {
	cfg := designs.QuickSortConfig{N: 3, ArrayAW: 3, DataW: 4, StackAW: 3}
	q := designs.NewQuickSort(cfg)
	fmt.Printf("quicksort machine (N=%d): %s\n", cfg.N, q.Netlist().Stats())

	// First confirm the machine actually sorts, via concrete simulation.
	input := []uint64{9, 2, 7}
	sorted, cycles, err := q.SimulateSort(input, 2000)
	if err != nil {
		panic(err)
	}
	fmt.Printf("simulation: %v -> %v in %d cycles\n\n", input, sorted, cycles)

	// P1 with EMM (BMC-3): the array has arbitrary initial contents, so
	// the proof needs the paper's precise initial-state modeling (§4.2).
	for _, pc := range []struct {
		name string
		prop int
	}{{"P1 (sorted)", q.P1Index}, {"P2 (stack discipline)", q.P2Index}} {
		q := designs.NewQuickSort(cfg)
		r := emmver.Verify(q.Netlist(), pc.prop, emmver.Options{Engine: emmver.EngineBMC3, MaxDepth: 200})
		fmt.Printf("EMM      %-22s %s\n", pc.name, r)

		exp, err := emmver.ExpandMemories(q.Netlist())
		if err != nil {
			panic(err)
		}
		opt := emmver.Options{Engine: emmver.EngineBMC1, MaxDepth: 200}
		opt.Timeout = 2 * time.Minute
		re := emmver.Verify(exp, pc.prop, opt)
		fmt.Printf("Explicit %-22s %s\n\n", pc.name, re)
	}

	// Table 2's point: with PBA, the array memory disappears from the P2
	// proof obligation entirely.
	q2 := designs.NewQuickSort(cfg)
	res := emmver.ProveWithAbstraction(q2.Netlist(), q2.P2Index, emmver.Options{
		Engine: emmver.EngineBMC3, MaxDepth: 200, StabilityDepth: 10,
	})
	fmt.Printf("P2 with PBA: %s\n", res.Kind())
	fmt.Printf("  reduced model: %s\n", res.Abs)
	fmt.Printf("  array memory modeled: %v (stack: %v)\n",
		res.Abs.MemEnabled[0], res.Abs.MemEnabled[1])
}
