package aiger

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/bmc"
	"emmver/internal/expmem"
	"emmver/internal/rtl"
	"emmver/internal/sim"
)

// randomNetlist builds a random memory-free sequential design.
func randomNetlist(rng *rand.Rand) *rtl.Module {
	m := rtl.NewModule("rand")
	nIn := 1 + rng.Intn(3)
	var ins []aig.Lit
	for i := 0; i < nIn; i++ {
		ins = append(ins, m.InputBit("in"))
	}
	nReg := 1 + rng.Intn(3)
	var regs []*rtl.Reg
	var sigs []aig.Lit
	sigs = append(sigs, ins...)
	for i := 0; i < nReg; i++ {
		init := rng.Intn(3)
		var r *rtl.Reg
		if init == 2 {
			r = m.RegisterX("r", 1)
		} else {
			r = m.BitReg("r", init == 1)
		}
		regs = append(regs, r)
		sigs = append(sigs, r.Bit())
	}
	pick := func() aig.Lit {
		l := sigs[rng.Intn(len(sigs))]
		if rng.Intn(2) == 1 {
			l = l.Not()
		}
		return l
	}
	for d := 0; d < 5+rng.Intn(10); d++ {
		sigs = append(sigs, m.N.And(pick(), pick()))
	}
	for _, r := range regs {
		r.SetNext(rtl.Vec{pick()})
	}
	m.Done(regs...)
	m.AssertAlways("p0", pick())
	m.AssertAlways("p1", pick())
	if rng.Intn(2) == 1 {
		m.Assume(pick())
	}
	return m
}

// equalBehavior cross-simulates two netlists with identical inputs
// (matched positionally) and compares property values.
func equalBehavior(t *testing.T, a, b *aig.Netlist, seed int64, cycles int) {
	t.Helper()
	if len(a.Inputs) != len(b.Inputs) || len(a.Props) != len(b.Props) {
		t.Fatalf("interface mismatch: %d/%d inputs, %d/%d props",
			len(a.Inputs), len(b.Inputs), len(a.Props), len(b.Props))
	}
	sa, sb := sim.New(a), sim.New(b)
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < cycles; c++ {
		ia := make(map[aig.NodeID]bool)
		ib := make(map[aig.NodeID]bool)
		for i := range a.Inputs {
			v := rng.Intn(2) == 1
			ia[a.Inputs[i]] = v
			ib[b.Inputs[i]] = v
		}
		ra := sa.Step(ia)
		rb := sb.Step(ib)
		for p := range ra.PropOK {
			if ra.PropOK[p] != rb.PropOK[p] {
				t.Fatalf("cycle %d prop %d: %v vs %v", c, p, ra.PropOK[p], rb.PropOK[p])
			}
		}
		if ra.ConstraintsOK != rb.ConstraintsOK {
			t.Fatalf("cycle %d: constraint mismatch", c)
		}
	}
}

func TestRoundtripASCII(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 40; iter++ {
		m := randomNetlist(rng)
		var buf bytes.Buffer
		if err := Write(&buf, m.N, false); err != nil {
			t.Fatalf("iter %d: write: %v", iter, err)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("iter %d: read: %v\n%s", iter, err, buf.String())
		}
		equalBehavior(t, m.N, back, int64(iter), 30)
	}
}

func TestRoundtripBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 40; iter++ {
		m := randomNetlist(rng)
		var buf bytes.Buffer
		if err := Write(&buf, m.N, true); err != nil {
			t.Fatalf("iter %d: write: %v", iter, err)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("iter %d: read: %v", iter, err)
		}
		equalBehavior(t, m.N, back, int64(iter), 30)
	}
}

func TestRoundtripPreservesVerdicts(t *testing.T) {
	// A counter design whose property verdicts must survive the
	// roundtrip through both formats.
	build := func() *rtl.Module {
		m := rtl.NewModule("c")
		c := m.Register("c", 3, 0)
		wrap := m.EqConst(c.Q, 4)
		c.SetNext(m.MuxV(wrap, m.Const(3, 0), m.Inc(c.Q)))
		m.Done(c)
		m.AssertAlways("ne3", m.EqConst(c.Q, 3).Not()) // CE at 3
		m.AssertAlways("ne6", m.EqConst(c.Q, 6).Not()) // provable
		return m
	}
	for _, binary := range []bool{false, true} {
		var buf bytes.Buffer
		if err := Write(&buf, build().N, binary); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if r := bmc.Check(back, 0, bmc.Options{Engine: bmc.EngineBMC1, MaxDepth: 20}); r.Kind != bmc.KindCE || r.Depth != 3 {
			t.Fatalf("binary=%v: prop0 got %v", binary, r)
		}
		if r := bmc.Check(back, 1, bmc.Options{Engine: bmc.EngineBMC1, MaxDepth: 20}); r.Kind != bmc.KindProof {
			t.Fatalf("binary=%v: prop1 got %v", binary, r)
		}
	}
}

func TestWriteRejectsMemories(t *testing.T) {
	m := rtl.NewModule("mem")
	mem := m.Memory("mem", 2, 2, aig.MemZero)
	mem.Read(m.Input("ra", 2), aig.True)
	var buf bytes.Buffer
	if err := Write(&buf, m.N, false); err == nil {
		t.Fatalf("memories must be rejected")
	}
	// After expansion it must serialize.
	exp, _, err := expmem.Expand(m.N)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(&buf, exp, false); err != nil {
		t.Fatal(err)
	}
}

func TestReadKnownASCII(t *testing.T) {
	// A hand-written toggle flip-flop with bad state "latch is 1".
	src := "aag 1 0 1 0 0 1\n2 3 0\n2\n"
	n, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Latches) != 1 || len(n.Props) != 1 {
		t.Fatalf("structure wrong")
	}
	// The latch toggles from 0: bad (latch=1) reachable at depth 1.
	r := bmc.Check(n, 0, bmc.Options{MaxDepth: 4})
	if r.Kind != bmc.KindCE || r.Depth != 1 {
		t.Fatalf("toggle verdict wrong: %v", r)
	}
}

func TestReadOutputsAsProperties(t *testing.T) {
	// AIGER 1.0 style: outputs only, no B section.
	src := "aag 1 1 0 1 0\n2\n2\n"
	n, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Props) != 1 {
		t.Fatalf("output must become a property")
	}
	r := bmc.Check(n, 0, bmc.Options{MaxDepth: 2})
	if r.Kind != bmc.KindCE || r.Depth != 0 {
		t.Fatalf("input-driven bad state must fire at depth 0: %v", r)
	}
}

func TestReadErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"xyz 1 2 3 4 5\n",
		"aag 0 1 0 0 0\n",           // M < I
		"aag 1 0 1 0 0\n2 99\n",     // next literal out of range
		"aag 2 1 0 0 1\n2\n4 4 2\n", // AND uses itself
		"aag 1 1 0 0 0\n3\n",        // negated input
	} {
		if _, err := Read(strings.NewReader(bad)); err == nil {
			t.Fatalf("input %q must fail", bad)
		}
	}
}

func TestLatchResetVariants(t *testing.T) {
	// Three latches: reset 0, reset 1, uninitialized (lit = itself).
	src := "aag 3 0 3 0 0 1\n2 2 0\n4 4 1\n6 6 6\n4\n"
	n, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n.Latches[0].Init != aig.Init0 || n.Latches[1].Init != aig.Init1 || n.Latches[2].Init != aig.InitX {
		t.Fatalf("resets wrong: %v %v %v", n.Latches[0].Init, n.Latches[1].Init, n.Latches[2].Init)
	}
}

func TestSymbolsSurviveWrite(t *testing.T) {
	m := rtl.NewModule("sym")
	m.InputBit("clk_enable")
	r := m.BitReg("flag", false)
	r.SetNext(rtl.Vec{aig.False})
	m.Done(r)
	m.AssertAlways("safe", aig.True)
	var buf bytes.Buffer
	if err := Write(&buf, m.N, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"i0 clk_enable", "l0 flag", "b0 safe"} {
		if !strings.Contains(out, want) {
			t.Fatalf("symbol %q missing from:\n%s", want, out)
		}
	}
}
