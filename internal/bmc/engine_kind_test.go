package bmc

import (
	"testing"

	"emmver/internal/aig"
	"emmver/internal/rtl"
)

// wedgeNetlist is the design that separates kind from BMC-3: a zero-init
// ROM (no write ports) read at an address taken from the counter's top bits (so the full
// carry chain stays in the property's cone of influence), with the property
// that enabled reads return zero. The 16-bit counter in the property's
// cone of influence pushes the recurrence diameter to 2^16, far past any
// test bound, so BMC-3's forward check stays SAT; its backward check stays
// SAT too, because arbitrary-initial-state modeling lets the induction
// hypothesis read a nonzero word. kind's retained write-free init closes
// the induction step immediately.
func wedgeNetlist() *aig.Netlist {
	m := rtl.NewModule("wedge")
	mem := m.Memory("rom", 4, 4, aig.MemZero)
	cnt := m.Register("cnt", 16, 0)
	cnt.SetNext(m.Inc(cnt.Q))
	re := m.InputBit("re")
	rd := mem.Read(cnt.Q[12:], re)
	bad := m.N.And(re, m.NonZero(rd))
	m.AssertAlways("rom-reads-zero", bad.Not())
	m.Done(cnt)
	return m.N
}

// shiftWedgeNetlist needs genuine k-induction depth: y lags x by one
// cycle and x reloads from the ROM, so "y is zero" is not 1-inductive
// (an arbitrary state can hold x=1) but becomes inductive at k=2 once the
// induction path pins x to a retained-zero ROM read. The counter again
// keeps the diameter out of reach of the forward check.
func shiftWedgeNetlist() *aig.Netlist {
	m := rtl.NewModule("shift-wedge")
	mem := m.Memory("rom", 4, 1, aig.MemZero)
	cnt := m.Register("cnt", 12, 0)
	cnt.SetNext(m.Inc(cnt.Q))
	rd := mem.Read(cnt.Q[8:], aig.True)
	x := m.Register("x", 1, 0)
	x.SetNext(rd)
	y := m.Register("y", 1, 0)
	y.SetNext(x.Q)
	m.AssertAlways("y-zero", y.Bit().Not())
	m.Done(cnt, x, y)
	return m.N
}

// writableWedgeNetlist guards the retention soundness condition: the same
// zero-init memory, but with a live write port. Retention must NOT apply
// (the memory is written, so "contents ≡ init" is not invariant) — the
// property is falsifiable by writing 1 and reading it back, and a wrongly
// retained init would let the induction step claim a bogus proof at depth
// 0 before the base case reaches the depth-1 counter-example.
func writableWedgeNetlist() *aig.Netlist {
	m := rtl.NewModule("writable-wedge")
	mem := m.Memory("mem", 2, 2, aig.MemZero)
	waddr := m.Input("waddr", 2)
	we := m.InputBit("we")
	mem.Write(waddr, m.Const(2, 1), we)
	raddr := m.Input("raddr", 2)
	re := m.InputBit("re")
	rd := mem.Read(raddr, re)
	bad := m.N.And(re, m.NonZero(rd))
	m.AssertAlways("mem-reads-zero", bad.Not())
	m.Done()
	return m.N
}

// TestKIndProvesWhereBMC3CannotBound is the wedge: within the same depth
// budget, BMC-3 exhausts the bound undecided while kind proves at depth 0.
func TestKIndProvesWhereBMC3CannotBound(t *testing.T) {
	n := wedgeNetlist()
	opt3 := Options{Engine: EngineBMC3, MaxDepth: 20}
	if r := Check(n, 0, opt3); r.Kind != KindNoCE {
		t.Fatalf("bmc3 on the wedge: %v, want NO_CE (bound exhausted)", r)
	}
	r := Check(n, 0, Options{Engine: EngineKInd, MaxDepth: 20})
	if r.Kind != KindProof || r.Depth != 0 || r.ProofSide != "backward" {
		t.Fatalf("kind on the wedge: %v (side %s), want PROOF depth=0 backward", r, r.ProofSide)
	}
}

// TestKIndNeedsInductionDepth pins that the P_0..P_{k-1} assumptions are
// live: the shift wedge is not 0- or 1-inductive, so the proof lands at
// exactly depth 2.
func TestKIndNeedsInductionDepth(t *testing.T) {
	n := shiftWedgeNetlist()
	r := Check(n, 0, Options{Engine: EngineKInd, MaxDepth: 20})
	if r.Kind != KindProof || r.Depth != 2 || r.ProofSide != "backward" {
		t.Fatalf("kind on the shift wedge: %v (side %s), want PROOF depth=2 backward", r, r.ProofSide)
	}
	if r3 := Check(n, 0, Options{Engine: EngineBMC3, MaxDepth: 20}); r3.Kind != KindNoCE {
		t.Fatalf("bmc3 on the shift wedge: %v, want NO_CE", r3)
	}
}

// TestKIndRetentionRequiresWriteFree is the soundness guard: with a write
// port present the init must not be retained, so kind finds the genuine
// depth-1 counter-example instead of a bogus depth-0 proof.
func TestKIndRetentionRequiresWriteFree(t *testing.T) {
	opt := Options{Engine: EngineKInd, MaxDepth: 10}
	opt.ValidateWitness = true
	r := Check(writableWedgeNetlist(), 0, opt)
	if r.Kind != KindCE || r.Depth != 1 {
		t.Fatalf("kind on the writable wedge: %v, want CE depth=1", r)
	}
	if r.Witness == nil {
		t.Fatal("CE without witness")
	}
}

// TestKIndMatchesBMC3OnArbitraryInitMemory: on a design whose memory is
// MemArbitrary with a write port, retention is a no-op and kind must land
// on BMC-3's verdict at the same depth (the basis for the CI parity
// smoke on growth.v).
func TestKIndMatchesBMC3OnArbitraryInitMemory(t *testing.T) {
	n := growthEquivNetlist()
	r3 := Check(n, 0, Options{Engine: EngineBMC3, MaxDepth: 10})
	rk := Check(n, 0, Options{Engine: EngineKInd, MaxDepth: 10})
	if rk.Kind != r3.Kind || rk.Depth != r3.Depth {
		t.Fatalf("kind %v vs bmc3 %v on arbitrary-init memory", rk, r3)
	}
}

// TestKIndWarmStart: both UNSAT checks are monotone in k, so a warm-started
// run must reach the same verdict with the proof reported at the frontier.
func TestKIndWarmStart(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    *aig.Netlist
	}{
		{"wedge", wedgeNetlist()},
		{"shift-wedge", shiftWedgeNetlist()},
	} {
		cold := Check(tc.n, 0, Options{Engine: EngineKInd, MaxDepth: 20})
		if cold.Kind != KindProof {
			t.Fatalf("%s: cold run %v", tc.name, cold)
		}
		opt := Options{Engine: EngineKInd, MaxDepth: 20}
		opt.StartDepth = 5
		warm := Check(tc.n, 0, opt)
		if warm.Kind != KindProof || warm.Depth != 5 {
			t.Fatalf("%s: warm run %v, want PROOF depth=5 (frontier above cold depth %d)",
				tc.name, warm, cold.Depth)
		}
	}
}
