// Lookupinv replays the Industry II verification story end to end on the
// multi-port lookup engine (one memory, 1 write + 3 read ports, dead write
// path):
//
//  1. abstracting the memory away completely yields spurious witnesses;
//  2. with EMM, no witness exists at any searched depth;
//  3. the invariant G(WE=0 ∨ WD=0) is proved by backward induction at
//     depth 2 — evidence of the latent "data read is always 0" bug;
//  4. justified by the invariant, the memory is replaced by an RD=0
//     constraint and every reachability property is proved via PBA;
//  5. the BDD-based model checker, for comparison, blows up on the
//     explicit-memory model.
package main

import (
	"fmt"

	"emmver"
	"emmver/internal/bdd"
	"emmver/internal/designs"
)

func main() {
	cfg := designs.LookupConfig{AW: 4, DW: 8, NumProps: 8, Latency: 6}
	l := designs.NewLookup(cfg)
	fmt.Printf("lookup engine: %s\n\n", l.Netlist().Stats())

	// 1. Full memory abstraction: read data free -> spurious witness.
	p0 := l.ReachIndices[0]
	r := emmver.Verify(l.Netlist(), p0, emmver.Options{MaxDepth: 20})
	fmt.Printf("1. no memory model:   %s\n", r)
	if r.Kind == emmver.CounterExample {
		err := r.Witness.Replay(l.Netlist(), p0)
		fmt.Printf("   concrete replay rejects it: %v\n", err != nil)
	}

	// 2. EMM: no witness.
	r = emmver.Verify(l.Netlist(), p0, emmver.Options{Engine: emmver.EngineBMC2, MaxDepth: 60})
	fmt.Printf("2. with EMM:          %s\n", r)

	// 3. The invariant, by backward induction.
	r = emmver.Verify(l.Netlist(), l.InvariantIndex, emmver.Options{Engine: emmver.EngineBMC3, MaxDepth: 20})
	fmt.Printf("3. G(WE=0 or WD=0):   %s via %s induction\n", r, r.ProofSide)

	// 4. RD=0 abstraction + PBA proves every property.
	constrained := l.WithRDZeroConstraint()
	proved := 0
	for _, p := range l.ReachIndices {
		pr := emmver.ProveWithAbstraction(constrained, p, emmver.Options{
			Engine: emmver.EngineBMC1, MaxDepth: 30, StabilityDepth: 5,
		})
		if pr.Kind() == emmver.Proved {
			proved++
		}
	}
	fmt.Printf("4. RD=0 + PBA:        %d/%d properties proved\n", proved, cfg.NumProps)

	// 5. The BDD engine on the explicit model.
	exp, err := emmver.ExpandMemories(l.Netlist())
	if err != nil {
		panic(err)
	}
	mc, err := bdd.CheckSafety(exp, p0, 200000)
	if err != nil {
		panic(err)
	}
	fmt.Printf("5. BDD on explicit:   %s\n", mc)
}
