package bmc

import (
	"testing"

	"emmver/internal/aig"
	"emmver/internal/rtl"
)

func TestMinimizeClearsIrrelevantInputs(t *testing.T) {
	// The property only cares about `trigger`; `noise` is a free input
	// the SAT model may set arbitrarily.
	m := rtl.NewModule("min")
	trigger := m.InputBit("trigger")
	noise := m.Input("noise", 8)
	_ = noise
	flag := m.BitReg("flag", false)
	flag.UpdateBit(trigger, aig.True)
	m.Done(flag)
	m.AssertAlways("never", flag.Bit().Not())

	r := Check(m.N, 0, Options{MaxDepth: 6, ValidateWitness: true})
	if r.Kind != KindCE {
		t.Fatalf("expected CE")
	}
	r.Witness.Minimize(m.N, 0)
	// After minimization the witness must still replay...
	if err := r.Witness.Replay(m.N, 0); err != nil {
		t.Fatalf("minimized witness broken: %v", err)
	}
	// ...and all noise bits must be cleared everywhere.
	for f, in := range r.Witness.Inputs {
		for _, l := range noise {
			if in[l.Node()] {
				t.Fatalf("frame %d: noise bit still set after minimization", f)
			}
		}
	}
}

func TestMinimizeKeepsEssentialMemoryWords(t *testing.T) {
	// The failure needs mem[2] == 5: minimization must keep that word
	// but may drop any other pinned words.
	m := rtl.NewModule("minmem")
	mem := m.Memory("mem", 2, 3, aig.MemArbitrary)
	rd := mem.Read(m.Const(2, 2), aig.True)
	other := mem.Read(m.Input("ra", 2), aig.True)
	acc := m.Register("acc", 3, 0)
	acc.SetNext(m.OrV(acc.Q, other)) // consume the other port too
	m.Done(acc)
	m.AssertAlways("ne5", m.EqConst(rd, 5).Not())

	r := Check(m.N, 0, Options{Engine: EngineBMC2, MaxDepth: 4, ValidateWitness: true})
	if r.Kind != KindCE {
		t.Fatalf("expected CE")
	}
	r.Witness.Minimize(m.N, 0)
	if err := r.Witness.Replay(m.N, 0); err != nil {
		t.Fatalf("minimized witness broken: %v", err)
	}
	if r.Witness.MemInit[0][2] != 5 {
		t.Fatalf("essential memory word lost: %v", r.Witness.MemInit[0])
	}
}

func TestMinimizeRejectsInvalidWitness(t *testing.T) {
	m := rtl.NewModule("ok")
	x := m.InputBit("x")
	m.AssertAlways("tauto", m.N.Or(x, x.Not()))
	w := &Witness{Length: 0, Inputs: []map[aig.NodeID]bool{{x.Node(): true}}}
	if got := w.Minimize(m.N, 0); got != 0 {
		t.Fatalf("minimizing a non-witness must be a no-op")
	}
}

// TestCOIEquivalentVerdicts: BMC on the cone-of-influence reduction gives
// the same verdicts as on the full design.
func TestCOIEquivalentVerdicts(t *testing.T) {
	m := rtl.NewModule("coi")
	c := m.Register("c", 3, 0)
	wrap := m.EqConst(c.Q, 4)
	c.SetNext(m.MuxV(wrap, m.Const(3, 0), m.Inc(c.Q)))
	junk := m.Register("junk", 16, 0)
	junk.SetNext(m.Inc(junk.Q))
	mem := m.Memory("junkmem", 3, 8, aig.MemZero)
	mem.Write(m.Slice(junk.Q, 0, 3), m.Slice(junk.Q, 0, 8), aig.True)
	sink := m.Register("sink", 8, 0)
	sink.SetNext(mem.Read(m.Slice(junk.Q, 2, 5), aig.True))
	m.Done(c, junk, sink)
	m.AssertAlways("ne3", m.EqConst(c.Q, 3).Not()) // CE at 3
	m.AssertAlways("ne6", m.EqConst(c.Q, 6).Not()) // provable

	for prop, want := range map[int]Kind{0: KindCE, 1: KindProof} {
		reduced, _ := aig.ExtractCone(m.N, []int{prop})
		if len(reduced.Memories) != 0 {
			t.Fatalf("junk memory must leave the cone")
		}
		if len(reduced.Latches) != 3 {
			t.Fatalf("cone kept %d latches, want 3", len(reduced.Latches))
		}
		full := Check(m.N, prop, Options{Engine: EngineBMC3, MaxDepth: 20})
		red := Check(reduced, 0, Options{Engine: EngineBMC1, MaxDepth: 20})
		if full.Kind != want || red.Kind != want {
			t.Fatalf("prop %d: full=%v reduced=%v want %v", prop, full.Kind, red.Kind, want)
		}
		if full.Kind == KindCE && full.Depth != red.Depth {
			t.Fatalf("CE depth differs: %d vs %d", full.Depth, red.Depth)
		}
	}
}
