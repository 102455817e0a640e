package bmc

import (
	"reflect"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/rtl"
)

// counterNetlist is a closed design (no primary inputs) whose property
// "count != limit" fails exactly at depth == limit, with a unique
// counter-example: every witness frame is forced, so a warm-started run
// must reproduce the cold run's witness bit for bit.
func counterNetlist(width int, limit uint64) *aig.Netlist {
	m := rtl.NewModule("warm-counter")
	c := m.Register("count", width, 0)
	c.SetNext(m.Inc(c.Q))
	m.AssertAlways("not-limit", m.EqConst(c.Q, limit).Not())
	m.Done(c)
	return m.N
}

// memCENetlist embeds a memory so the warm start also exercises the EMM
// constraint build-up below the start depth: an arbitrary-init memory is
// read at a counter-driven address, and the property claims the read word
// is never all-ones once the counter passed a threshold — falsified by
// choosing all-ones initial contents at the right address.
func memCENetlist() *aig.Netlist {
	m := rtl.NewModule("warm-mem")
	mem := m.Memory("mem", 3, 4, aig.MemArbitrary)
	c := m.Register("count", 3, 0)
	c.SetNext(m.Inc(c.Q))
	rd := mem.Read(c.Q, aig.True)
	allOnes := m.EqConst(rd, 15)
	past := m.EqConst(c.Q, 5)
	m.AssertAlways("no-ones-at-5", m.N.And(allOnes, past).Not())
	m.Done(c)
	return m.N
}

func checkWarmParity(t *testing.T, n *aig.Netlist, opt Options, start int, wantFrames bool) {
	t.Helper()
	cold := Check(n, 0, opt)
	warm := opt
	warm.StartDepth = start
	wr := Check(n, 0, warm)
	if cold.Kind != wr.Kind || cold.Depth != wr.Depth {
		t.Fatalf("verdict parity broken: cold %s depth=%d, warm(start=%d) %s depth=%d",
			cold.Kind, cold.Depth, start, wr.Kind, wr.Depth)
	}
	if (cold.Witness == nil) != (wr.Witness == nil) {
		t.Fatalf("witness presence differs: cold=%v warm=%v", cold.Witness != nil, wr.Witness != nil)
	}
	if cold.Witness == nil {
		return
	}
	if cold.Witness.Length != wr.Witness.Length {
		t.Fatalf("witness length differs: cold=%d warm=%d", cold.Witness.Length, wr.Witness.Length)
	}
	if wantFrames && !reflect.DeepEqual(cold.Witness, wr.Witness) {
		t.Fatalf("witness frames differ:\n cold: %+v\n warm: %+v", cold.Witness, wr.Witness)
	}
	// Whatever the frames, both witnesses must replay on the concrete
	// design.
	for name, w := range map[string]*Witness{"cold": cold.Witness, "warm": wr.Witness} {
		if err := w.Replay(n, 0); err != nil {
			t.Fatalf("%s witness does not replay: %v", name, err)
		}
	}
}

// A warm-started falsification run must report the identical verdict,
// depth, and (on this fully forced design) identical witness frames as a
// cold run.
func TestWarmStartIdenticalVerdictAndWitness(t *testing.T) {
	n := counterNetlist(4, 6)
	for _, opt := range []Options{Options{Engine: EngineBMC1, MaxDepth: 12}, Options{Engine: EngineBMC2, MaxDepth: 12}} {
		for _, start := range []int{1, 3, 6} {
			checkWarmParity(t, n, opt, start, true)
		}
	}
}

// Warm start over an EMM design: the CE sits at depth 5; starting the
// checks at 3 must find the same violation depth and a valid witness.
func TestWarmStartEMMCounterExample(t *testing.T) {
	n := memCENetlist()
	opt := Options{Engine: EngineBMC2, MaxDepth: 10}
	opt.ValidateWitness = true
	checkWarmParity(t, n, opt, 3, false)
	// Warm-starting exactly at the CE depth still finds it.
	checkWarmParity(t, n, opt, 5, false)
}

// A valid property stays NO_CE under warm start, and a provable one is
// still proved: skipping shallow checks may only defer where the proof
// fires — to the warm frontier at the latest — never change the verdict.
func TestWarmStartNoCEAndProofParity(t *testing.T) {
	// Valid shared-address read-consistency shape (growth): NO_CE.
	m := rtl.NewModule("warm-valid")
	mem := m.Memory("mem", 3, 4, aig.MemArbitrary)
	addr := m.Input("a", 3)
	mem.Write(addr, m.Input("wd", 4), m.InputBit("we"))
	re0, re1 := m.InputBit("re0"), m.InputBit("re1")
	rd0 := mem.Read(addr, re0)
	rd1 := mem.Read(addr, re1)
	m.AssertAlways("consistent", m.N.Implies(m.N.And(re0, re1), m.Eq(rd0, rd1)))
	m.Done()
	checkWarmParity(t, m.N, Options{Engine: EngineBMC2, MaxDepth: 8}, 4, false)

	// Closed counter that saturates at 9: the bound is inductive, so the
	// cold proof fires at depth 1 and the warm run defers it to its start
	// depth — the earliest depth it is allowed to check.
	p := rtl.NewModule("warm-proof")
	c := p.Register("count", 4, 0)
	sat9 := p.EqConst(c.Q, 9)
	c.SetNext(p.MuxV(sat9, c.Q, p.Inc(c.Q)))
	p.AssertAlways("bounded", p.Ule(c.Q, p.Const(4, 9)))
	p.Done(c)
	cold := Check(p.N, 0, Options{Engine: EngineBMC1, MaxDepth: 20})
	warm := Options{Engine: EngineBMC1, MaxDepth: 20}
	warm.StartDepth = 3
	wr := Check(p.N, 0, warm)
	if cold.Kind != KindProof || wr.Kind != KindProof {
		t.Fatalf("expected proofs, got cold=%s warm=%s", cold.Kind, wr.Kind)
	}
	wantDepth := cold.Depth
	if warm.StartDepth > wantDepth {
		wantDepth = warm.StartDepth
	}
	if wr.Depth != wantDepth {
		t.Fatalf("warm proof at depth %d, want %d (cold %d, start %d)",
			wr.Depth, wantDepth, cold.Depth, warm.StartDepth)
	}
}

// BMC-3 under warm start, falsifiable side: StartDepth defers the
// counter-example check (the base case of its k-induction), which must
// still land on the cold run's counter-example with a replaying witness
// (the proof side is covered by TestKIndWarmStart).
func TestWarmStartKIndBaseCase(t *testing.T) {
	n := memCENetlist()
	opt := Options{Engine: EngineBMC3, MaxDepth: 10}
	opt.ValidateWitness = true
	checkWarmParity(t, n, opt, 3, false)
	checkWarmParity(t, n, opt, 5, false)
}
