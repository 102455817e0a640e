// Filtersearch reproduces the Industry I workload shape: a streaming
// low-pass image filter with two line-buffer memories and a battery of
// reachability properties "output == v". Most values have witnesses
// (found by EMM-based BMC, deepest around two scan lines); values above
// the smoothing bound are proved unreachable by induction.
package main

import (
	"fmt"

	"emmver"
	"emmver/internal/designs"
)

func main() {
	cfg := designs.ImageFilterConfig{LineWidth: 6, AW: 4, DW: 4, NumProps: 16}
	f := designs.NewImageFilter(cfg)
	fmt.Printf("image filter: %s\n", f.Netlist().Stats())
	fmt.Printf("smoothing bound: output ≤ %d\n\n", f.MaxOutput)

	res := emmver.VerifyAll(f.Netlist(), f.PropIndices(), emmver.Options{
		Engine:          emmver.EngineBMC3,
		MaxDepth:        6*cfg.LineWidth + 10,
		ValidateWitness: true,
	})

	witnesses, proofs := 0, 0
	for v, r := range res.Results {
		switch r.Kind {
		case emmver.CounterExample:
			witnesses++
			fmt.Printf("out==%-3d reachable  (witness depth %d)\n", v, r.Depth)
		case emmver.Proved:
			proofs++
			fmt.Printf("out==%-3d unreachable (proved by %s induction at depth %d)\n",
				v, r.ProofSide, r.Depth)
		default:
			fmt.Printf("out==%-3d %s\n", v, r.Kind)
		}
	}
	fmt.Printf("\n%d witnesses (deepest %d), %d induction proofs, %.1fs total\n",
		witnesses, res.MaxWitnessDepth, proofs, res.Stats.Elapsed.Seconds())
}
