package bmc

import (
	"testing"

	"emmver/internal/aig"
	"emmver/internal/rtl"
)

func TestCEGARProvesWithSmallModel(t *testing.T) {
	// Relevant mod-5 counter + lots of irrelevant state: CEGAR should
	// prove without ever refining past the counter.
	m := rtl.NewModule("c")
	c := m.Register("c", 3, 0)
	wrap := m.EqConst(c.Q, 4)
	c.SetNext(m.MuxV(wrap, m.Const(3, 0), m.Inc(c.Q)))
	regs := []*rtl.Reg{c}
	for i := 0; i < 5; i++ {
		j := m.Register("junk", 8, 0)
		j.SetNext(m.Inc(j.Q))
		regs = append(regs, j)
	}
	m.Done(regs...)
	m.AssertAlways("ne6", m.EqConst(c.Q, 6).Not())
	res := CEGAR(m.N, 0, Options{Engine: EngineBMC1, MaxDepth: 40}, 10)
	if res.Final.Kind != KindProof {
		t.Fatalf("expected proof, got %v", res.Final)
	}
	if res.KeptLatches > 3 {
		t.Fatalf("CEGAR kept %d latches; the property needs only 3", res.KeptLatches)
	}
}

func TestCEGARFindsRealCE(t *testing.T) {
	m := rtl.NewModule("c")
	c := m.Register("c", 3, 0)
	c.SetNext(m.Inc(c.Q))
	m.Done(c)
	m.AssertAlways("ne5", m.EqConst(c.Q, 5).Not())
	res := CEGAR(m.N, 0, Options{Engine: EngineBMC1, MaxDepth: 20, ValidateWitness: true}, 10)
	if res.Final.Kind != KindCE || res.Final.Depth != 5 {
		t.Fatalf("expected real CE at 5, got %v", res.Final)
	}
}

func TestCEGARRefinesThroughDependencies(t *testing.T) {
	// The property reads r2; r2 depends on r1; r1 on an input. The
	// initial abstraction (support of the property) keeps only r2;
	// refinement must pull in r1 before the proof goes through.
	m := rtl.NewModule("chain")
	x := m.InputBit("x")
	r1 := m.BitReg("r1", false)
	r1.UpdateBit(aig.True, m.N.And(x, x.Not())) // always 0, via logic
	r2 := m.BitReg("r2", false)
	r2.UpdateBit(aig.True, r1.Bit())
	m.Done(r1, r2)
	m.AssertAlways("r2zero", r2.Bit().Not())
	// Pin the compile pipeline off: constant sweep would prove r1 and r2
	// constant outright, leaving no dependency chain to refine through.
	res := CEGAR(m.N, 0, Options{Engine: EngineBMC1, MaxDepth: 20, Passes: "none"}, 10)
	if res.Final.Kind != KindProof {
		t.Fatalf("expected proof, got %v", res.Final)
	}
	if res.Rounds < 2 {
		t.Fatalf("expected at least one refinement round, got %d", res.Rounds)
	}
}

func TestCEGARWithMemoryDesign(t *testing.T) {
	// The quicksort-P2-style pattern: CEGAR on an EMM design.
	m := rtl.NewModule("mem")
	c := m.Register("c", 3, 0)
	wrap := m.EqConst(c.Q, 4)
	c.SetNext(m.MuxV(wrap, m.Const(3, 0), m.Inc(c.Q)))
	jc := m.Register("jc", 4, 0)
	jc.SetNext(m.Inc(jc.Q))
	mem := m.Memory("junkmem", 2, 4, aig.MemZero)
	mem.Write(m.Slice(jc.Q, 0, 2), jc.Q, aig.True)
	sink := m.Register("sink", 4, 0)
	sink.SetNext(mem.Read(m.Slice(jc.Q, 1, 3), aig.True))
	m.Done(c, jc, sink)
	m.AssertAlways("ne6", m.EqConst(c.Q, 6).Not())
	res := CEGAR(m.N, 0, Options{Engine: EngineBMC3, MaxDepth: 40}, 10)
	if res.Final.Kind != KindProof {
		t.Fatalf("expected proof, got %v", res.Final)
	}
}
