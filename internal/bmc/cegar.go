package bmc

import (
	"time"

	"emmver/internal/aig"
	"emmver/internal/pba"
)

// CEGARResult is the outcome of the counterexample-guided abstraction
// refinement loop.
type CEGARResult struct {
	// Final is the verdict (proof on an abstract model transfers to the
	// concrete design; counter-examples are concretized before being
	// reported).
	Final *Result
	// Rounds is the number of refinement iterations performed.
	Rounds int
	// KeptLatches is the final number of concrete latches.
	KeptLatches int
	// Elapsed is the total wall-clock time.
	Elapsed time.Duration
}

// CEGAR implements the refinement-based flow the paper's introduction
// contrasts with proof-based abstraction (its references [6–8]): start
// from a small abstract model — only the latches in the property's
// combinational support stay concrete — and model-check it. An abstract
// proof is sound (the abstraction over-approximates). An abstract
// counter-example at depth k is checked on the concrete model at the same
// depth: if concretely satisfiable it is a real counter-example;
// otherwise the refutation of the concretization identifies the latches
// to refine with, à la SAT-based refinement (Chauhan et al., FMCAD 2002).
//
// The paper's §1 point — "after every iterative refinement step the model
// size increases, making it increasingly difficult to verify" while PBA
// starts concrete and only shrinks — can be measured against ProveWithPBA
// on the same property (see BenchmarkAblationPBAvsCEGAR).
func CEGAR(n *aig.Netlist, prop int, opt Options, maxRounds int) *CEGARResult {
	start := time.Now()
	res := &CEGARResult{}
	if maxRounds < 1 {
		maxRounds = 16
	}

	// Initial abstraction: keep only the property's support latches.
	kept := map[int]bool{}
	latchIdx := map[aig.NodeID]int{}
	for i, l := range n.Latches {
		latchIdx[l.Node] = i
	}
	for id := range n.SupportLatches(n.Props[prop].OK) {
		kept[latchIdx[id]] = true
	}
	memUsed := map[[2]int]bool{}

	for round := 0; round < maxRounds; round++ {
		res.Rounds = round + 1
		tr := pba.NewTracker()
		for i := range kept {
			tr.LR[i] = true
		}
		for mp := range memUsed {
			tr.MemPortsUsed[mp] = true
		}
		abs := tr.Abstract(n)
		res.KeptLatches = abs.KeptLatches

		aOpt := opt
		aOpt.abs = abs
		aOpt.Engine = withProofs(opt.Engine, true)
		aOpt.ValidateWitness = false
		r := Check(n, prop, aOpt)
		if r.Kind != KindCE {
			// Proof, bound exhausted, or timeout: transfers to (or ends
			// the analysis of) the concrete design.
			res.Final = r
			res.Elapsed = time.Since(start)
			return res
		}

		// Concretization check at the abstract CE's depth, with proof
		// tracing so a refutation tells us what to refine with.
		cOpt := opt
		cOpt.abs = nil
		cOpt.Engine = withProofs(opt.Engine, false)
		cOpt.pba = true
		cOpt.MaxDepth = r.Depth
		cOpt.ValidateWitness = opt.ValidateWitness
		cr := Check(n, prop, cOpt)
		if cr.Kind == KindCE {
			res.Final = cr // real counter-example
			res.Elapsed = time.Since(start)
			return res
		}
		if cr.Kind == KindTimeout {
			res.Final = cr
			res.Elapsed = time.Since(start)
			return res
		}
		// Spurious: refine with the latches (and memory ports) the
		// concrete refutation used.
		grew := false
		for i := range cr.Tracker.LR {
			if !kept[i] {
				kept[i] = true
				grew = true
			}
		}
		for mp := range cr.Tracker.MemPortsUsed {
			if !memUsed[mp] {
				memUsed[mp] = true
				grew = true
			}
		}
		if !grew {
			// No new reasons: fall back to the concrete model outright.
			fOpt := opt
			fOpt.Engine = withProofs(opt.Engine, true)
			res.Final = Check(n, prop, fOpt)
			res.Elapsed = time.Since(start)
			return res
		}
	}
	// Round budget exhausted: decide concretely.
	fOpt := opt
	fOpt.Engine = withProofs(opt.Engine, true)
	res.Final = Check(n, prop, fOpt)
	res.Elapsed = time.Since(start)
	return res
}
