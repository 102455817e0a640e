package bmc

import (
	"testing"

	"emmver/internal/aig"
	"emmver/internal/designs"
	"emmver/internal/rtl"
)

func TestProveWithInvariantBasic(t *testing.T) {
	// r2 mirrors r1; r1 stays 0 (gated by constant false). "r2 == 0" is
	// not 1-inductive on its own state, but with the invariant "r1 == 0"
	// assumed it becomes trivial.
	m := rtl.NewModule("inv")
	r1 := m.BitReg("r1", false)
	r1.UpdateBit(aig.True, m.N.And(m.InputBit("x"), aig.False))
	r2 := m.BitReg("r2", false)
	r2.UpdateBit(aig.True, r1.Bit())
	m.Done(r1, r2)
	m.AssertAlways("main-r2zero", r2.Bit().Not())
	m.AssertAlways("inv-r1zero", r1.Bit().Not())

	res, err := ProveWithInvariant(m.N, 0, 1, Options{MaxDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantProof.Kind != KindProof {
		t.Fatalf("invariant not proved: %v", res.InvariantProof)
	}
	if res.Kind() != KindProof {
		t.Fatalf("main property not proved: %v", res.Main)
	}
	// The caller's netlist must be unchanged.
	if len(m.N.Constraints) != 0 {
		t.Fatalf("constraint leaked into the caller's netlist")
	}
}

func TestProveWithInvariantIndustryIIShape(t *testing.T) {
	// The Industry II pattern: a 2-flop dead privilege pipeline gates the
	// effective write strobe. The invariant "the strobe never fires" is
	// 2-inductive; the main property "the write counter stays zero" is
	// not inductive on its own (the counter can tick from an arbitrary
	// privilege state) but becomes 1-inductive once the invariant is
	// assumed.
	m := rtl.NewModule("iishape")
	req := m.InputBit("req")
	// A privilege flag that holds its value and is never set: "flag = 0"
	// is an easy inductive invariant, but it does not appear in the main
	// property's own induction hypothesis.
	flag := m.BitReg("flag", false)
	flag.SetNext(rtl.Vec{flag.Bit()})
	strobe := m.N.And(req, flag.Bit())
	count := m.Register("count", 4, 0)
	count.Update(strobe, m.Inc(count.Q))
	// A free-running tick defeats the forward termination check (the
	// state never repeats within a small bound), so the main property
	// genuinely needs induction — which fails without the invariant
	// (a window may start with flag = 1 and count about to tick).
	tick := m.Register("tick", 8, 0)
	tick.SetNext(m.Inc(tick.Q))
	m.Done(flag, count, tick)
	m.AssertAlways("main-count-zero", m.IsZero(count.Q))
	m.AssertAlways("inv-flag-clear", flag.Bit().Not())

	// Sanity: without the invariant the main property has no induction
	// proof within the bound (the input-driven counter defeats LFP).
	// Pipeline off: constant sweep proves flag (and then count) constant
	// and discharges the property structurally, which would defeat the
	// point of this sanity check.
	direct := Check(m.N, 0, Options{MaxDepth: 12, Proofs: true, Passes: "none"})
	if direct.Kind == KindProof {
		t.Fatalf("main property should not be provable directly here: %v", direct)
	}

	res, err := ProveWithInvariant(m.N, 0, 1, Options{MaxDepth: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantProof.Kind != KindProof {
		t.Fatalf("invariant proof wrong: %v (%s)", res.InvariantProof, res.InvariantProof.ProofSide)
	}
	if res.Kind() != KindProof {
		t.Fatalf("main property not proved under the invariant: %v", res.Main)
	}
}

func TestProveWithInvariantLookupInvariantProves(t *testing.T) {
	// On the real lookup engine the helper invariant itself must go
	// through at depth 2 via this API (the main reachability properties
	// additionally need the RD=0 abstraction — tested in designs).
	l := designs.NewLookup(designs.LookupConfig{AW: 3, DW: 4, NumProps: 4, Latency: 3})
	res, err := ProveWithInvariant(l.Netlist(), l.ReachIndices[0], l.InvariantIndex,
		Options{MaxDepth: 30, UseEMM: true, Passes: "none"})
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantProof.Kind != KindProof || res.InvariantProof.Depth != 2 {
		t.Fatalf("invariant proof wrong: %v", res.InvariantProof)
	}
	// The main property stays NO_CE at the bound: the invariant alone is
	// not enough without the RD=0 memory abstraction — faithfully
	// matching why the paper needed that extra step.
	if res.Main.Kind != KindNoCE {
		t.Fatalf("expected NO_CE for the main property, got %v", res.Main)
	}
}

func TestProveWithInvariantFailedInvariant(t *testing.T) {
	m := rtl.NewModule("bad")
	c := m.Register("c", 2, 0)
	c.SetNext(m.Inc(c.Q))
	m.Done(c)
	m.AssertAlways("main", aig.True)
	m.AssertAlways("inv-false", m.EqConst(c.Q, 3).Not()) // violated at 3
	res, err := ProveWithInvariant(m.N, 0, 1, Options{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantProof.Kind != KindCE {
		t.Fatalf("bogus invariant must be refuted: %v", res.InvariantProof)
	}
	if res.Main != nil {
		t.Fatalf("main must not run under an unproven invariant")
	}
	if res.Kind() != KindCE {
		t.Fatalf("overall kind must reflect the failed invariant")
	}
}

func TestProveWithInvariantArgErrors(t *testing.T) {
	m := rtl.NewModule("e")
	m.AssertAlways("p", aig.True)
	if _, err := ProveWithInvariant(m.N, 0, 0, Options{MaxDepth: 2}); err == nil {
		t.Fatalf("same property must error")
	}
	if _, err := ProveWithInvariant(m.N, 0, 7, Options{MaxDepth: 2}); err == nil {
		t.Fatalf("out-of-range invariant must error")
	}
}
