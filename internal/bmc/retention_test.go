package bmc

import (
	"testing"

	"emmver/internal/aig"
	"emmver/internal/pba"
	"emmver/internal/rtl"
)

// BMC-3's backward termination check is k-induction: the induction step
// SAT(LFP_k ∧ P_0..P_{k-1} ∧ ¬P_k ∧ CP_k) on a window that starts in an
// arbitrary state. §4.2 makes every memory arbitrary there, except that a
// memory with no write port keeps its declared contents: nothing changes
// it, so they hold in every reachable state. The tests below pin where
// that retention applies and where it must not.

// wedgeNetlist is a zero-init ROM (no write ports) read at an address
// taken from the counter's top bits (so the full carry chain stays in the
// property's cone of influence), with the property that enabled reads
// return zero. The 16-bit counter pushes the recurrence diameter to 2^16,
// far past any test bound, so the forward check stays SAT; the induction
// step closes at once because the ROM keeps its zero contents. Fully
// arbitrary contents would let the induction hypothesis read a nonzero
// word at every depth.
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

// shiftWedgeNetlist needs genuine induction depth: y lags x by one cycle
// and x reloads from the ROM, so "y is zero" is not 1-inductive (an
// arbitrary state can hold x=1) but becomes inductive at k=2 once the
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
// 0 before the counter-example check reaches the depth-1 counter-example.
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

// arbitraryROMNetlist is a write-free memory with arbitrary initial
// contents, always read, with the property that it reads zero. Only a
// declared init is retained, so the initial word stays free on both
// windows: the counter-example is at depth 0, and a retained "zero" would
// let the depth-0 induction step claim a bogus proof first.
func arbitraryROMNetlist() *aig.Netlist {
	m := rtl.NewModule("arbitrary-rom")
	mem := m.Memory("rom", 2, 2, aig.MemArbitrary)
	rd := mem.Read(m.Input("raddr", 2), aig.True)
	m.AssertAlways("rom-reads-zero", m.EqConst(rd, 0))
	m.Done()
	return m.N
}

// TestBMC3ProvesWriteFreeWedge: the forward check cannot bound the wedge,
// and the induction step proves it at depth 0.
func TestBMC3ProvesWriteFreeWedge(t *testing.T) {
	r := Check(wedgeNetlist(), 0, Options{Engine: EngineBMC3, MaxDepth: 20})
	if r.Kind != KindProof || r.Depth != 0 || r.ProofSide != "backward" {
		t.Fatalf("bmc3 on the wedge: %v (side %s), want PROOF depth=0 backward", r, r.ProofSide)
	}
}

// TestKIndNeedsInductionDepth pins that the P_0..P_{k-1} assumptions of
// the induction step are live: the shift wedge is not 0- or 1-inductive,
// so the proof lands at exactly depth 2.
func TestKIndNeedsInductionDepth(t *testing.T) {
	r := Check(shiftWedgeNetlist(), 0, Options{Engine: EngineBMC3, MaxDepth: 20})
	if r.Kind != KindProof || r.Depth != 2 || r.ProofSide != "backward" {
		t.Fatalf("bmc3 on the shift wedge: %v (side %s), want PROOF depth=2 backward", r, r.ProofSide)
	}
}

// TestKIndRetentionRequiresWriteFree is the soundness guard: a memory with
// a write port, or with arbitrary declared contents, keeps fully arbitrary
// contents on the backward window, so BMC-3 finds the genuine
// counter-example instead of a bogus earlier proof, and its witness
// replays on the concrete design.
func TestKIndRetentionRequiresWriteFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     *aig.Netlist
		depth int
	}{
		{"writable", writableWedgeNetlist(), 1},
		{"arbitrary-init", arbitraryROMNetlist(), 0},
	} {
		opt := Options{Engine: EngineBMC3, MaxDepth: 10, ValidateWitness: true}
		r := Check(tc.n, 0, opt)
		if r.Kind != KindCE || r.Depth != tc.depth {
			t.Fatalf("%s: bmc3 %v (side %s), want CE depth=%d", tc.name, r, r.ProofSide, tc.depth)
		}
		if r.Witness == nil {
			t.Fatalf("%s: CE without witness", tc.name)
		}
		if err := r.Witness.Replay(tc.n, 0); err != nil {
			t.Fatalf("%s: witness does not replay: %v", tc.name, err)
		}
	}
}

// TestKIndWarmStart: both termination checks are monotone in k, so a run
// warm-started past the cold proof depth must still prove, with the proof
// reported at the frontier.
func TestKIndWarmStart(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    *aig.Netlist
	}{
		{"wedge", wedgeNetlist()},
		{"shift-wedge", shiftWedgeNetlist()},
	} {
		cold := Check(tc.n, 0, Options{Engine: EngineBMC3, MaxDepth: 20})
		if cold.Kind != KindProof {
			t.Fatalf("%s: cold run %v", tc.name, cold)
		}
		opt := Options{Engine: EngineBMC3, MaxDepth: 20, StartDepth: 5}
		warm := Check(tc.n, 0, opt)
		if warm.Kind != KindProof || warm.Depth != 5 || warm.ProofSide != "backward" {
			t.Fatalf("%s: warm run %v (side %s), want PROOF depth=5 backward (frontier above cold depth %d)",
				tc.name, warm, warm.ProofSide, cold.Depth)
		}
	}
}

// TestRetentionCountsDisabledWritePorts: write ports are counted on the
// netlist, not on the abstraction, so a write port an abstraction disables
// still keeps the memory arbitrary on the backward window. With the
// writable wedge's only write port disabled the forward window reads the
// zero init and finds no counter-example, and the induction step must
// stay SAT rather than claim the property.
func TestRetentionCountsDisabledWritePorts(t *testing.T) {
	abs := &pba.Abstraction{
		FreeLatches:  map[aig.NodeID]bool{},
		MemEnabled:   []bool{true},
		ReadEnabled:  [][]bool{{true}},
		WriteEnabled: [][]bool{{false}},
	}
	r := Check(writableWedgeNetlist(), 0, Options{Engine: EngineBMC3, MaxDepth: 5, abs: abs})
	if r.Kind != KindNoCE || r.Depth != 5 {
		t.Fatalf("bmc3 with the write port disabled: %v (side %s), want NO_CE depth=5", r, r.ProofSide)
	}
}
