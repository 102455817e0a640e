package designs

import (
	"math/rand"
	"testing"

	"emmver/internal/bmc"
	"emmver/internal/sim"
)

// tinyLookup keeps the memory small enough for exhaustive engines.
func tinyLookup() LookupConfig {
	return LookupConfig{AW: 3, DW: 4, NumProps: 4, Latency: 3}
}

func TestLookupResponsesStayZeroInSimulation(t *testing.T) {
	l := NewLookup(tinyLookup())
	s := sim.New(l.M.N)
	rng := rand.New(rand.NewSource(3))
	for c := 0; c < 500; c++ {
		res := s.Step(s.RandomInputs(rng))
		for pi, ok := range res.PropOK {
			if !ok {
				t.Fatalf("cycle %d: property %d violated in simulation", c, pi)
			}
		}
	}
	// The table must still be all zero.
	for a := 0; a < 8; a++ {
		if s.MemWord(0, a) != 0 {
			t.Fatalf("table written despite dead write path")
		}
	}
}

func TestLookupSpuriousCEUnderFullAbstraction(t *testing.T) {
	cfg := tinyLookup()
	l := NewLookup(cfg)
	for _, p := range l.ReachIndices[:2] {
		r := bmc.Check(l.Netlist(), p, bmc.Options{MaxDepth: 20})
		if r.Kind != bmc.KindCE {
			t.Fatalf("prop %d: full abstraction must give a spurious CE, got %v", p, r)
		}
		if r.Depth != cfg.Latency+1 {
			t.Fatalf("prop %d: spurious CE at depth %d, want %d", p, r.Depth, cfg.Latency+1)
		}
		if err := r.Witness.Replay(l.Netlist(), p); err == nil {
			t.Fatalf("prop %d: spurious CE unexpectedly replays", p)
		}
	}
}

func TestLookupDefaultSpuriousDepthIsSeven(t *testing.T) {
	// With the Industry-II latency of 6, spurious witnesses appear at
	// depth 7 — the depth the paper reports.
	cfg := tinyLookup()
	cfg.Latency = 6
	l := NewLookup(cfg)
	r := bmc.Check(l.Netlist(), l.ReachIndices[0], bmc.Options{MaxDepth: 20})
	if r.Kind != bmc.KindCE || r.Depth != 7 {
		t.Fatalf("expected spurious CE at depth 7, got %v", r)
	}
}

func TestLookupEMMFindsNoWitness(t *testing.T) {
	l := NewLookup(tinyLookup())
	for _, p := range l.ReachIndices {
		r := bmc.Check(l.Netlist(), p, bmc.Options{Engine: bmc.EngineBMC2, MaxDepth: 25})
		if r.Kind == bmc.KindCE {
			t.Fatalf("prop %d: EMM must find no witness, got %v", p, r)
		}
	}
}

func TestLookupInvariantBackwardInductionDepth2(t *testing.T) {
	l := NewLookup(tinyLookup())
	// The compile pipeline's constant sweep discharges the invariant
	// structurally (depth 0); pin it off to observe the 2-induction the
	// design is built to need.
	opt := bmc.Options{Engine: bmc.EngineBMC3, MaxDepth: 10}
	opt.Passes = "none"
	r := bmc.Check(l.Netlist(), l.InvariantIndex, opt)
	if r.Kind != bmc.KindProof || r.ProofSide != "backward" || r.Depth != 2 {
		t.Fatalf("invariant must be proved by backward induction at depth 2, got %v (%s)", r, r.ProofSide)
	}
}

func TestLookupRDZeroAbstractionProvesAll(t *testing.T) {
	l := NewLookup(tinyLookup())
	constrained := l.WithRDZeroConstraint()
	for _, p := range l.ReachIndices {
		r := bmc.Check(constrained, p, bmc.Options{Engine: bmc.EngineBMC1, MaxDepth: 20})
		if r.Kind != bmc.KindProof {
			t.Fatalf("prop %d: RD=0 abstraction must prove, got %v", p, r)
		}
		if r.Stats.Elapsed.Seconds() > 10 {
			t.Fatalf("prop %d: proof too slow", p)
		}
	}
}

func TestLookupRDZeroWithPBA(t *testing.T) {
	// The paper's final step: PBA on the RD=0-constrained model shrinks
	// it further, then the proof goes through on the reduced model.
	l := NewLookup(tinyLookup())
	constrained := l.WithRDZeroConstraint()
	p := l.ReachIndices[0]
	res := bmc.ProveWithPBA(constrained, p, bmc.Options{Engine: bmc.EngineBMC1, MaxDepth: 30, StabilityDepth: 5})
	if res.Kind() != bmc.KindProof {
		t.Fatalf("PBA flow must prove, got %v", res.Kind())
	}
	if res.Abs != nil && res.Abs.KeptLatches >= res.Abs.KeptLatches+len(res.Abs.FreeLatches) {
		t.Fatalf("no latch reduction: %s", res.Abs)
	}
}

func TestLookupEMMAloneCannotProve(t *testing.T) {
	// Mirrors the paper's observation that BMC with EMM alone could not
	// prove the reachability properties: the backward induction window
	// starts in an arbitrary state where unwritten reads are arbitrary,
	// and the input-driven pipelines give the design an astronomically
	// large forward diameter. The flow that works is the invariant +
	// RD=0 abstraction (see TestLookupRDZeroAbstractionProvesAll). This is
	// the literal Fig. 3 check, so it runs without the compile pipeline:
	// the ports pass would prune the lookup's dead write port, leaving a
	// write-free memory whose zero contents the induction step keeps, and
	// BMC-3 then proves the property at depth 1.
	l := NewLookup(tinyLookup())
	opt := bmc.Options{Engine: bmc.EngineBMC3, MaxDepth: 40, Passes: "none"}
	r := bmc.Check(l.Netlist(), l.ReachIndices[0], opt)
	if r.Kind != bmc.KindNoCE {
		t.Fatalf("expected NO_CE at the bound, got %v", r)
	}
	opt.Passes = ""
	if r := bmc.Check(l.Netlist(), l.ReachIndices[0], opt); r.Kind != bmc.KindProof || r.Depth != 1 {
		t.Fatalf("with the compile pipeline: %v, want PROOF depth=1", r)
	}
}

func TestDefaultLookupMatchesIndustryII(t *testing.T) {
	cfg := DefaultLookup()
	if cfg.AW != 12 || cfg.DW != 32 || cfg.NumProps != 8 {
		t.Fatalf("default config diverges from Industry II: %+v", cfg)
	}
	l := NewLookup(cfg)
	n := l.Netlist()
	if len(n.Memories) != 1 {
		t.Fatalf("one memory expected")
	}
	if len(n.Memories[0].Reads) != 3 || len(n.Memories[0].Writes) != 1 {
		t.Fatalf("Industry II has 3 read ports and 1 write port")
	}
}
