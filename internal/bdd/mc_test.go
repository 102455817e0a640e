package bdd

import (
	"math/rand"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/bmc"
	"emmver/internal/expmem"
	"emmver/internal/rtl"
)

func TestMCCounterReachability(t *testing.T) {
	// mod-5 counter: value 3 reachable at depth 3, value 6 never.
	build := func(target uint64) *rtl.Module {
		m := rtl.NewModule("mc")
		c := m.Register("cnt", 3, 0)
		wrap := m.EqConst(c.Q, 4)
		c.SetNext(m.MuxV(wrap, m.Const(3, 0), m.Inc(c.Q)))
		m.Done(c)
		m.AssertAlways("ne", m.EqConst(c.Q, target).Not())
		return m
	}
	r, err := CheckSafety(build(3).N, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != MCViolated || r.Depth != 3 {
		t.Fatalf("expected violation at depth 3, got %v", r)
	}
	r, err = CheckSafety(build(6).N, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != MCProved {
		t.Fatalf("expected proof, got %v", r)
	}
}

func TestMCInputsAndInitX(t *testing.T) {
	// A register loaded from an input: any value reachable at depth 1;
	// an InitX register: any value reachable at depth 0.
	m := rtl.NewModule("mc2")
	d := m.Input("d", 2)
	r1 := m.Register("r1", 2, 0)
	r1.SetNext(d)
	r2 := m.RegisterX("r2", 2)
	r2.SetNext(r2.Q)
	m.Done(r1, r2)
	m.AssertAlways("p1", m.EqConst(r1.Q, 3).Not())
	m.AssertAlways("p2", m.EqConst(r2.Q, 3).Not())
	res, err := CheckSafety(m.N, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != MCViolated || res.Depth != 1 {
		t.Fatalf("p1: want violation at 1, got %v", res)
	}
	res, err = CheckSafety(m.N, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != MCViolated || res.Depth != 0 {
		t.Fatalf("p2: want violation at 0, got %v", res)
	}
}

func TestMCConstraints(t *testing.T) {
	m := rtl.NewModule("mc3")
	x := m.InputBit("x")
	r := m.BitReg("r", false)
	r.UpdateBit(x, aig.True)
	m.Done(r)
	m.Assume(x.Not())
	m.AssertAlways("stays0", r.Bit().Not())
	res, err := CheckSafety(m.N, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != MCProved {
		t.Fatalf("constrained design must be proved, got %v", res)
	}
}

func TestMCRejectsMemories(t *testing.T) {
	m := rtl.NewModule("mc4")
	mem := m.Memory("mem", 2, 2, aig.MemZero)
	rd := mem.Read(m.Input("ra", 2), aig.True)
	m.AssertAlways("p", rd[0].Not())
	if _, err := CheckSafety(m.N, 0, 0); err == nil {
		t.Fatalf("netlists with memories must be rejected")
	}
}

func TestMCBlowupOnExplicitMemory(t *testing.T) {
	// The Industry II phenomenon: the explicit model's transition
	// relation exceeds any modest node budget.
	m := rtl.NewModule("mc5")
	mem := m.Memory("mem", 5, 8, aig.MemZero)
	mem.Write(m.Input("wa", 5), m.Input("wd", 8), m.InputBit("we"))
	rd := mem.Read(m.Input("ra", 5), aig.True)
	m.AssertAlways("p", m.IsZero(rd))
	exp, _, err := expmem.Expand(m.N)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckSafety(exp, 0, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != MCBlowup {
		t.Fatalf("expected blowup, got %v", res)
	}
}

// TestMCAgreesWithBMC cross-checks the two engines on random small
// memory-free designs.
func TestMCAgreesWithBMC(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 15; iter++ {
		m := rtl.NewModule("fuzz")
		w := 2 + rng.Intn(2)
		c := m.Register("c", w, uint64(rng.Intn(2)))
		step := uint64(1 + rng.Intn(3))
		c.SetNext(m.Add(c.Q, m.Const(w, step)))
		m.Done(c)
		target := rng.Uint64() & (1<<uint(w) - 1)
		m.AssertAlways("p", m.EqConst(c.Q, target).Not())

		mc, err := CheckSafety(m.N, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		bm := bmc.Check(m.N, 0, bmc.Options{Engine: bmc.EngineBMC1, MaxDepth: 1<<uint(w) + 2})
		switch {
		case mc.Kind == MCViolated && bm.Kind == bmc.KindCE:
			if mc.Depth != bm.Depth {
				t.Fatalf("iter %d: depth mismatch bdd=%d bmc=%d", iter, mc.Depth, bm.Depth)
			}
		case mc.Kind == MCProved && bm.Kind == bmc.KindProof:
		default:
			t.Fatalf("iter %d: verdict mismatch bdd=%v bmc=%v", iter, mc, bm)
		}
	}
}

func TestMCKindStrings(t *testing.T) {
	for _, k := range []MCKind{MCProved, MCViolated, MCBlowup} {
		if k.String() == "" {
			t.Fatalf("unnamed kind")
		}
	}
	r := &MCResult{Kind: MCProved}
	if r.String() == "" {
		t.Fatalf("empty result string")
	}
}
