package btor2

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/bmc"
	"emmver/internal/designs"
	"emmver/internal/rtl"
	"emmver/internal/sim"
)

func TestReadCounter(t *testing.T) {
	src := `
; 3-bit counter, bad when it reaches 5
1 sort bitvec 3
2 zero 1
3 state 1 cnt
4 init 1 3 2
5 one 1
6 add 1 3 5
7 next 1 3 6
8 constd 1 5
9 eq 1 3 8
10 bad 9
`
	n, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Latches) != 3 || len(n.Props) != 1 {
		t.Fatalf("structure wrong: %s", n.Stats())
	}
	r := bmc.Check(n, 0, bmc.Options{MaxDepth: 10})
	if r.Kind != bmc.KindCE || r.Depth != 5 {
		t.Fatalf("counter verdict wrong: %v", r)
	}
}

func TestReadArrayMemory(t *testing.T) {
	// A memory written from inputs; bad when a read returns 7.
	src := `
1 sort bitvec 2
2 sort bitvec 3
3 sort array 1 2
4 state 3 mem
5 zero 2
6 init 3 4 5
7 input 1 waddr
8 input 2 wdata
9 input 1 we_raw
10 slice 1 9 0 0   ; 1-bit enable  (sort id 10 reuses? no: declares)
`
	// The slice trick above is awkward; write the enable as a 1-bit input
	// instead.
	src = `
1 sort bitvec 2
2 sort bitvec 3
3 sort array 1 2
4 state 3 mem
5 zero 2
6 init 3 4 5
7 input 1 waddr
8 input 2 wdata
9 sort bitvec 1
10 input 9 we
11 write 3 4 7 8
12 ite 3 10 11 4
13 next 3 4 12
14 input 1 raddr
15 read 2 4 14
16 constd 2 7
17 eq 9 15 16
18 bad 17
`
	n, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Memories) != 1 {
		t.Fatalf("memory not inferred")
	}
	m := n.Memories[0]
	if m.AW != 2 || m.DW != 3 || m.Init != aig.MemZero {
		t.Fatalf("memory geometry wrong")
	}
	if len(m.Writes) != 1 || len(m.Reads) != 1 {
		t.Fatalf("ports wrong: %dW %dR", len(m.Writes), len(m.Reads))
	}
	// EMM: reachable (write 7, read it back) at depth 1.
	r := bmc.Check(n, 0, bmc.Options{Engine: bmc.EngineBMC2, MaxDepth: 5, ValidateWitness: true})
	if r.Kind != bmc.KindCE || r.Depth != 1 {
		t.Fatalf("verdict wrong: %v", r)
	}
}

func TestReadArbitraryInitArray(t *testing.T) {
	src := `
1 sort bitvec 2
2 sort bitvec 4
3 sort array 1 2
4 state 3 mem
5 input 1 addr
6 read 2 4 5
7 constd 2 9
8 eq 2 6 7
9 sort bitvec 1
10 slice 9 8 0 0
11 bad 10
`
	n, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n.Memories[0].Init != aig.MemArbitrary {
		t.Fatalf("uninitialized array must be arbitrary")
	}
	r := bmc.Check(n, 0, bmc.Options{Engine: bmc.EngineBMC2, MaxDepth: 3, ValidateWitness: true})
	if r.Kind != bmc.KindCE || r.Depth != 0 {
		t.Fatalf("arbitrary contents make 9 readable at depth 0: %v", r)
	}
}

func TestReadOperators(t *testing.T) {
	// Exercise the expression evaluator: bad fires iff the ALU identity
	// (a+b)-b == a is violated — i.e., never.
	src := `
1 sort bitvec 4
2 input 1 a
3 input 1 b
4 add 1 2 3
5 sub 1 4 3
6 neq 1 5 2
7 sort bitvec 1
8 slice 7 6 0 0
9 bad 8
`
	n, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	r := bmc.Check(n, 0, bmc.Options{Engine: bmc.EngineBMC1, MaxDepth: 4})
	if r.Kind != bmc.KindProof {
		t.Fatalf("identity must be proved: %v", r)
	}
}

func TestReadNegatedRefsAndConstraint(t *testing.T) {
	src := `
1 sort bitvec 1
2 input 1 x
3 state 1 s
4 zero 1
5 init 1 3 4
6 or 1 3 2
7 next 1 3 6
8 constraint -2
9 bad 3
`
	n, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// With x constrained to 0, s stays 0: the bad state is unreachable.
	r := bmc.Check(n, 0, bmc.Options{Engine: bmc.EngineBMC1, MaxDepth: 10})
	if r.Kind != bmc.KindProof {
		t.Fatalf("constrained design must be proved: %v", r)
	}
}

func TestReadErrors(t *testing.T) {
	for _, bad := range []string{
		"x sort bitvec 1\n",
		"1 sort bitvec 0\n",
		"1 sort frob 3\n",
		"1 sort bitvec 1\n2 frobnicate 1\n3 bad 2\n",
		"1 sort bitvec 1\n2 state 1\n3 init 1 2 2\n", // non-const init
		"1 sort bitvec 2\n2 sort array 1 1\n3 state 2 m\n4 input 1 a\n5 next 2 3 4\n", // bad array next
		"1 sort bitvec 1\n2 state 1\n2 state 1\n",                                     // duplicate node id
	} {
		if _, err := Read(strings.NewReader(bad)); err == nil {
			t.Fatalf("input %q must fail", bad)
		}
	}
}

// The scanner starts small and grows only for long lines; a comment line
// longer than 1 MiB still parses.
func TestReadLongCommentLine(t *testing.T) {
	src := "1 sort bitvec 1\n; " + strings.Repeat("x", 1<<20+512) + "\n2 state 1 s\n3 bad 2\n"
	n, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Latches) != 1 || len(n.Props) != 1 {
		t.Fatalf("got %d latches, %d properties; want 1 and 1", len(n.Latches), len(n.Props))
	}
}

// roundtrip tests: netlist -> btor2 -> netlist behavioral equivalence.
func TestRoundtripMemoryDesign(t *testing.T) {
	m := rtl.NewModule("rt")
	mem := m.Memory("mem", 2, 3, aig.MemZero)
	mem.Write(m.Input("wa", 2), m.Input("wd", 3), m.InputBit("we"))
	rd := mem.Read(m.Input("ra", 2), aig.True)
	acc := m.Register("acc", 3, 0)
	acc.SetNext(m.XorV(acc.Q, rd))
	m.Done(acc)
	for _, l := range acc.Q {
		m.AssertAlways("acc", l)
	}

	var buf bytes.Buffer
	if err := Write(&buf, m.N); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if len(back.Memories) != 1 || back.Memories[0].AW != 2 || back.Memories[0].DW != 3 {
		t.Fatalf("memory lost in roundtrip")
	}
	// Cross-simulate.
	s1, s2 := sim.New(m.N), sim.New(back)
	rng := rand.New(rand.NewSource(12))
	for c := 0; c < 60; c++ {
		in1 := make(map[aig.NodeID]bool)
		in2 := make(map[aig.NodeID]bool)
		for i := range m.N.Inputs {
			v := rng.Intn(2) == 1
			in1[m.N.Inputs[i]] = v
			in2[back.Inputs[i]] = v
		}
		r1 := s1.Step(in1)
		r2 := s2.Step(in2)
		for p := range r1.PropOK {
			if r1.PropOK[p] != r2.PropOK[p] {
				t.Fatalf("cycle %d prop %d mismatch\n%s", c, p, buf.String())
			}
		}
	}
}

func TestRoundtripVerdicts(t *testing.T) {
	m := rtl.NewModule("rt2")
	c := m.Register("c", 3, 0)
	wrap := m.EqConst(c.Q, 4)
	c.SetNext(m.MuxV(wrap, m.Const(3, 0), m.Inc(c.Q)))
	m.Done(c)
	m.AssertAlways("ne3", m.EqConst(c.Q, 3).Not())
	m.AssertAlways("ne6", m.EqConst(c.Q, 6).Not())

	var buf bytes.Buffer
	if err := Write(&buf, m.N); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r := bmc.Check(back, 0, bmc.Options{Engine: bmc.EngineBMC1, MaxDepth: 20}); r.Kind != bmc.KindCE || r.Depth != 3 {
		t.Fatalf("prop0: %v", r)
	}
	if r := bmc.Check(back, 1, bmc.Options{Engine: bmc.EngineBMC1, MaxDepth: 20}); r.Kind != bmc.KindProof {
		t.Fatalf("prop1: %v", r)
	}
}

func TestRoundtripMultiPortRace(t *testing.T) {
	// Same-cycle same-address writes: the race tie-break (higher port
	// wins) must survive the roundtrip.
	m := rtl.NewModule("race")
	mem := m.Memory("mem", 1, 4, aig.MemZero)
	addr := m.Const(1, 0)
	mem.Write(addr, m.Const(4, 5), aig.True)
	mem.Write(addr, m.Const(4, 9), aig.True)
	rd := mem.Read(addr, aig.True)
	got9 := m.BitReg("got9", false)
	got9.UpdateBit(m.EqConst(rd, 9), aig.True)
	m.Done(got9)
	m.AssertAlways("sees9", got9.Bit().Not()) // CE at depth 2 proves 9 won

	var buf bytes.Buffer
	if err := Write(&buf, m.N); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r := bmc.Check(back, 0, bmc.Options{Engine: bmc.EngineBMC2, MaxDepth: 5, ValidateWitness: true})
	if r.Kind != bmc.KindCE {
		t.Fatalf("race winner lost in roundtrip: %v", r)
	}
}

func TestWriteQuicksortParses(t *testing.T) {
	// The full quicksort machine (two arbitrary-init memories) must
	// export and re-import, preserving the P1 proof.
	m := rtl.NewModule("q")
	_ = m
	q := buildTinyQuicksort()
	var buf bytes.Buffer
	if err := Write(&buf, q); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r := bmc.Check(back, 0, bmc.Options{Engine: bmc.EngineBMC3, MaxDepth: 120})
	if r.Kind != bmc.KindProof {
		t.Fatalf("P1 must survive the roundtrip: %v", r)
	}
}

// buildTinyQuicksort constructs the quicksort case study at tiny widths.
func buildTinyQuicksort() *aig.Netlist {
	q := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 2, DataW: 3, StackAW: 2})
	return q.Netlist()
}
