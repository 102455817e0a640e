package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/rtl"
)

func TestLatchInitAndStep(t *testing.T) {
	m := rtl.NewModule("t")
	q := m.Register("q", 2, 2)
	q.SetNext(m.Inc(q.Q))
	m.Done(q)
	s := New(m.N)
	s.Begin(nil)
	if got := s.EvalVec(q.Q); got != 2 {
		t.Fatalf("init %d want 2", got)
	}
	s.Step(nil)
	s.Begin(nil)
	if got := s.EvalVec(q.Q); got != 3 {
		t.Fatalf("after step %d want 3", got)
	}
	if s.Cycle() != 1 {
		t.Fatalf("cycle count wrong")
	}
}

func TestSetLatchOverride(t *testing.T) {
	m := rtl.NewModule("t")
	q := m.RegisterX("q", 1)
	q.SetNext(q.Q)
	m.Done(q)
	s := New(m.N)
	s.SetLatch(q.Q[0].Node(), true)
	if !s.LatchValue(q.Q[0].Node()) {
		t.Fatalf("SetLatch lost")
	}
	s.Begin(nil)
	if !s.Eval(q.Q[0]) {
		t.Fatalf("override not visible")
	}
}

func TestMemoryReadWriteCommitOrder(t *testing.T) {
	m := rtl.NewModule("t")
	mem := m.Memory("mem", 2, 4, aig.MemZero)
	we := m.InputBit("we")
	addr := m.Input("a", 2)
	data := m.Input("d", 4)
	mem.Write(addr, data, we)
	rd := mem.Read(addr, aig.True)
	s := New(m.N)
	in := map[aig.NodeID]bool{we.Node(): true}
	for i, l := range addr {
		in[l.Node()] = 1>>uint(i)&1 == 1
	}
	for i, l := range data {
		in[l.Node()] = 7>>uint(i)&1 == 1
	}
	s.Begin(in)
	if s.EvalVec(rd) != 0 {
		t.Fatalf("async read must see pre-write contents")
	}
	s.Step(in)
	if s.MemWord(0, 1) != 7 {
		t.Fatalf("write not committed")
	}
	s.Begin(in)
	if s.EvalVec(rd) != 7 {
		t.Fatalf("read after commit wrong")
	}
}

func TestSetMemWordAndImage(t *testing.T) {
	m := rtl.NewModule("t")
	mem := m.Memory("rom", 2, 4, aig.MemImage)
	mem.Mod.Image = []uint64{3, 1, 4, 1}
	raddr := m.Input("ra", 2)
	rd := mem.Read(raddr, aig.True)
	s := New(m.N)
	for a := 0; a < 4; a++ {
		in := map[aig.NodeID]bool{}
		for i, l := range raddr {
			in[l.Node()] = a>>uint(i)&1 == 1
		}
		s.Begin(in)
		if got := s.EvalVec(rd); got != mem.Mod.Image[a] {
			t.Fatalf("rom[%d]=%d want %d", a, got, mem.Mod.Image[a])
		}
	}
	s.SetMemWord(0, 2, 9)
	in := map[aig.NodeID]bool{raddr[1].Node(): true}
	s.Begin(in)
	if got := s.EvalVec(rd); got != 9 {
		t.Fatalf("SetMemWord not visible: %d", got)
	}
}

func TestPropertiesAndConstraints(t *testing.T) {
	m := rtl.NewModule("t")
	x := m.InputBit("x")
	m.AssertAlways("px", x)
	m.Assume(x.Not())
	s := New(m.N)
	res := s.Step(map[aig.NodeID]bool{x.Node(): true})
	if !res.PropOK[0] {
		t.Fatalf("property should hold when x=1")
	}
	if res.ConstraintsOK {
		t.Fatalf("constraint ¬x violated when x=1")
	}
	res = s.Step(map[aig.NodeID]bool{x.Node(): false})
	if res.PropOK[0] || !res.ConstraintsOK {
		t.Fatalf("wrong evaluation when x=0")
	}
}

func TestRandomInputsCoverAllInputs(t *testing.T) {
	m := rtl.NewModule("t")
	m.Input("a", 4)
	m.InputBit("b")
	s := New(m.N)
	in := s.RandomInputs(rand.New(rand.NewSource(1)))
	if len(in) != 5 {
		t.Fatalf("expected 5 inputs, got %d", len(in))
	}
}

func TestRandomizeState(t *testing.T) {
	m := rtl.NewModule("t")
	q := m.Register("q", 8, 0)
	q.SetNext(q.Q)
	m.Done(q)
	mem := m.Memory("mem", 3, 8, aig.MemZero)
	mem.Read(m.Input("ra", 3), aig.True)
	s := New(m.N)
	s.RandomizeState(rand.New(rand.NewSource(7)))
	any := false
	for a := 0; a < 8; a++ {
		if s.MemWord(0, a) != 0 {
			any = true
		}
	}
	s.Begin(nil)
	if s.EvalVec(q.Q) != 0 && !any {
		t.Fatalf("randomize changed nothing")
	}
	for a := 0; a < 8; a++ {
		if s.MemWord(0, a) > 0xff {
			t.Fatalf("randomized word exceeds DW mask")
		}
	}
}

func TestWriteRaceLastPortWins(t *testing.T) {
	m := rtl.NewModule("t")
	mem := m.Memory("mem", 1, 4, aig.MemZero)
	addr := m.Const(1, 0)
	mem.Write(addr, m.Const(4, 5), aig.True)
	mem.Write(addr, m.Const(4, 9), aig.True)
	s := New(m.N)
	s.Step(nil)
	if got := s.MemWord(0, 0); got != 9 {
		t.Fatalf("race: got %d want 9 (higher port wins)", got)
	}
}

// randNetlist builds a seeded random netlist: inputs, latches of every
// reset kind, one or two memories of every init kind with 1-3 read and 0-2
// write ports, AND logic over all of it, properties and constraints. Each
// read port's address and enable are drawn from the logic built before its
// data nodes exist, so the netlist has no combinational cycle.
func randNetlist(rng *rand.Rand) *aig.Netlist {
	n := aig.New("rand")
	pool := []aig.Lit{aig.True}
	pick := func() aig.Lit { return pool[rng.Intn(len(pool))].XorInv(rng.Intn(2) == 1) }
	pickVec := func(w int) []aig.Lit {
		v := make([]aig.Lit, w)
		for i := range v {
			v[i] = pick()
		}
		return v
	}
	gates := func(k int) {
		for i := 0; i < k; i++ {
			pool = append(pool, n.And(pick(), pick()))
		}
	}
	for i := 0; i < 2+rng.Intn(4); i++ {
		pool = append(pool, n.NewInput(fmt.Sprintf("i%d", i)))
	}
	var latches []aig.Lit
	for i := 0; i < 1+rng.Intn(5); i++ {
		l := n.NewLatch(fmt.Sprintf("l%d", i), []aig.Init{aig.Init0, aig.Init1, aig.InitX}[rng.Intn(3)])
		latches = append(latches, l)
		pool = append(pool, l)
	}
	gates(3 + rng.Intn(5))
	var mems []*aig.Memory
	for mi := 0; mi < 1+rng.Intn(2); mi++ {
		aw, dw := 1+rng.Intn(3), 1+rng.Intn(4)
		m := n.NewMemory(fmt.Sprintf("m%d", mi), aw, dw, []aig.MemInit{aig.MemZero, aig.MemArbitrary, aig.MemImage}[rng.Intn(3)])
		if m.Init == aig.MemImage {
			for a := 0; a < m.Words(); a++ {
				m.Image = append(m.Image, uint64(rng.Intn(1<<dw)))
			}
		}
		mems = append(mems, m)
		for r := 0; r < 1+rng.Intn(3); r++ {
			addr, en := pickVec(aw), pick()
			rp := n.NewReadPort(m)
			n.SetReadAddr(m, rp, addr, en)
			pool = append(pool, rp.DataLits()...)
			gates(1 + rng.Intn(4))
		}
	}
	gates(5 + rng.Intn(10))
	for _, m := range mems {
		for w := 0; w < rng.Intn(3); w++ {
			n.NewWritePort(m, pickVec(m.AW), pickVec(m.DW), pick())
		}
	}
	for _, l := range latches {
		n.SetNext(l, pick())
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		n.AddProperty(fmt.Sprintf("p%d", i), pick())
	}
	for i := 0; i < rng.Intn(3); i++ {
		n.AddConstraint(pick())
	}
	return n
}

// The dense Simulator against the map-based reference it replaced: from
// the same overridden initial state, under the same partial input maps,
// every node's value after Begin and after Step, every StepResult, every
// latch and every memory word must agree at every cycle.
func TestSimulatorMatchesReference(t *testing.T) {
	const trials, cycles = 300, 12
	readsDisabled := 0
	for seed := 0; seed < trials; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := randNetlist(rng)
		s, ref := New(n), newRef(n)
		if rng.Intn(4) == 0 {
			st := rng.Int63()
			s.RandomizeState(rand.New(rand.NewSource(st)))
			ref.RandomizeState(rand.New(rand.NewSource(st)))
		}
		for _, l := range n.Latches {
			if l.Init == aig.InitX && rng.Intn(2) == 0 {
				v := rng.Intn(2) == 1
				s.SetLatch(l.Node, v)
				ref.SetLatch(l.Node, v)
			}
		}
		for mi, m := range n.Memories {
			if m.Init == aig.MemArbitrary {
				for a := 0; a < m.Words(); a++ {
					w := uint64(rng.Intn(1 << m.DW))
					s.SetMemWord(mi, a, w)
					ref.SetMemWord(mi, a, w)
				}
			}
		}
		all := func(when string, c int) {
			for id := 0; id < n.NumNodes(); id++ {
				l := aig.MkLit(aig.NodeID(id), false)
				if got, want := s.Eval(l), ref.Eval(l); got != want {
					t.Fatalf("seed %d cycle %d %s: node %d = %v, reference %v", seed, c, when, id, got, want)
				}
			}
		}
		for c := 0; c < cycles; c++ {
			in := map[aig.NodeID]bool{}
			for _, id := range n.Inputs {
				if rng.Intn(3) > 0 { // the rest default to false
					in[id] = rng.Intn(2) == 1
				}
			}
			if rng.Intn(2) == 0 {
				s.Begin(in)
				ref.Begin(in)
				all("after Begin", c)
				for _, m := range n.Memories {
					for _, rp := range m.Reads {
						if !s.Eval(rp.En) {
							readsDisabled++
						}
					}
				}
			}
			got, want := s.Step(in), ref.Step(in)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d cycle %d: Step %+v, reference %+v", seed, c, got, want)
			}
			all("after Step", c)
			if s.Cycle() != ref.Cycle() {
				t.Fatalf("seed %d: cycle %d, reference %d", seed, s.Cycle(), ref.Cycle())
			}
			for _, l := range n.Latches {
				if s.LatchValue(l.Node) != ref.LatchValue(l.Node) {
					t.Fatalf("seed %d cycle %d: latch %d = %v, reference %v", seed, c, l.Node, s.LatchValue(l.Node), ref.LatchValue(l.Node))
				}
			}
			for mi, m := range n.Memories {
				for a := 0; a < m.Words(); a++ {
					if s.MemWord(mi, a) != ref.MemWord(mi, a) {
						t.Fatalf("seed %d cycle %d: mem %d[%d] = %d, reference %d", seed, c, mi, a, s.MemWord(mi, a), ref.MemWord(mi, a))
					}
				}
			}
		}
	}
	if readsDisabled == 0 {
		t.Fatal("no read port was ever disabled: the generator no longer checks reads under a low enable")
	}
}
