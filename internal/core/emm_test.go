package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/obs"
	"emmver/internal/rtl"
	"emmver/internal/sat"
	"emmver/internal/unroll"
)

// memHarness is a memory whose ports are driven directly by primary inputs,
// so tests can script arbitrary access sequences through SAT assumptions.
type memHarness struct {
	m     *rtl.Module
	u     *unroll.Unroller
	s     *sat.Solver
	g     *Generator
	we    []aig.Lit // write enable per write port
	waddr []rtl.Vec
	wdata []rtl.Vec
	re    []aig.Lit
	raddr []rtl.Vec
	rdata []rtl.Vec
}

func newMemHarness(t *testing.T, aw, dw, nw, nr int, init aig.MemInit, forceArb bool) *memHarness {
	t.Helper()
	m := rtl.NewModule("mh")
	mem := m.Memory("mem", aw, dw, init)
	h := &memHarness{m: m}
	for w := 0; w < nw; w++ {
		we := m.InputBit("we")
		wa := m.Input("wa", aw)
		wd := m.Input("wd", dw)
		mem.Write(wa, wd, we)
		h.we = append(h.we, we)
		h.waddr = append(h.waddr, wa)
		h.wdata = append(h.wdata, wd)
	}
	for r := 0; r < nr; r++ {
		re := m.InputBit("re")
		ra := m.Input("ra", aw)
		rd := mem.Read(ra, re)
		h.re = append(h.re, re)
		h.raddr = append(h.raddr, ra)
		h.rdata = append(h.rdata, rd)
	}
	h.s = sat.New()
	h.u = unroll.New(m.N, h.s, unroll.Initialized)
	h.g = NewGenerator(h.u, forceArb)
	return h
}

// assume pins a design bus to a value at a frame.
func (h *memHarness) assumeVec(v rtl.Vec, frame int, val uint64) []sat.Lit {
	var out []sat.Lit
	for i, l := range v {
		out = append(out, h.u.Lit(l, frame).XorSign(val>>uint(i)&1 == 0))
	}
	return out
}

func (h *memHarness) assumeBit(l aig.Lit, frame int, val bool) sat.Lit {
	return h.u.Lit(l, frame).XorSign(!val)
}

// write scripts a write on port w at the given frame.
func (h *memHarness) write(w, frame int, addr, data uint64) []sat.Lit {
	as := []sat.Lit{h.assumeBit(h.we[w], frame, true)}
	as = append(as, h.assumeVec(h.waddr[w], frame, addr)...)
	as = append(as, h.assumeVec(h.wdata[w], frame, data)...)
	return as
}

// noWrite disables all write ports at a frame.
func (h *memHarness) noWrite(frame int) []sat.Lit {
	var as []sat.Lit
	for w := range h.we {
		as = append(as, h.assumeBit(h.we[w], frame, false))
	}
	return as
}

// read scripts a read on port r at a frame.
func (h *memHarness) read(r, frame int, addr uint64) []sat.Lit {
	as := []sat.Lit{h.assumeBit(h.re[r], frame, true)}
	as = append(as, h.assumeVec(h.raddr[r], frame, addr)...)
	return as
}

// rdEquals returns assumptions forcing the read data of port r at frame to
// equal (or differ from, when negate) a value.
func (h *memHarness) rdEquals(r, frame int, val uint64) []sat.Lit {
	return h.assumeVec(h.rdata[r], frame, val)
}

func TestForwardingBasic(t *testing.T) {
	h := newMemHarness(t, 3, 4, 1, 1, aig.MemZero, false)
	h.g.AddUpTo(2)
	var as []sat.Lit
	as = append(as, h.write(0, 0, 5, 9)...)
	as = append(as, h.noWrite(1)...)
	as = append(as, h.noWrite(2)...)
	as = append(as, h.read(0, 2, 5)...)
	// Read must return 9.
	if got := h.s.Solve(append(as, h.rdEquals(0, 2, 9)...)...); got != sat.Sat {
		t.Fatalf("read of written value must be SAT, got %v", got)
	}
	for wrong := uint64(0); wrong < 16; wrong++ {
		if wrong == 9 {
			continue
		}
		if got := h.s.Solve(append(as, h.rdEquals(0, 2, wrong)...)...); got != sat.Unsat {
			t.Fatalf("read of wrong value %d must be UNSAT", wrong)
		}
	}
}

func TestMostRecentWriteWins(t *testing.T) {
	h := newMemHarness(t, 3, 4, 1, 1, aig.MemZero, false)
	h.g.AddUpTo(3)
	var as []sat.Lit
	as = append(as, h.write(0, 0, 2, 7)...)
	as = append(as, h.write(0, 1, 2, 11)...)
	as = append(as, h.noWrite(2)...)
	as = append(as, h.noWrite(3)...)
	as = append(as, h.read(0, 3, 2)...)
	if got := h.s.Solve(append(as, h.rdEquals(0, 3, 11)...)...); got != sat.Sat {
		t.Fatalf("most recent write must be readable")
	}
	if got := h.s.Solve(append(as, h.rdEquals(0, 3, 7)...)...); got != sat.Unsat {
		t.Fatalf("stale write must not be readable")
	}
}

func TestSameCycleWriteNotVisible(t *testing.T) {
	h := newMemHarness(t, 3, 4, 1, 1, aig.MemZero, false)
	h.g.AddUpTo(1)
	var as []sat.Lit
	as = append(as, h.write(0, 0, 4, 3)...)
	as = append(as, h.write(0, 1, 4, 12)...)
	as = append(as, h.read(0, 1, 4)...)
	// At frame 1 the frame-1 write is not yet visible: must read 3.
	if got := h.s.Solve(append(as, h.rdEquals(0, 1, 3)...)...); got != sat.Sat {
		t.Fatalf("same-cycle write must not be forwarded")
	}
	if got := h.s.Solve(append(as, h.rdEquals(0, 1, 12)...)...); got != sat.Unsat {
		t.Fatalf("same-cycle write must not be visible")
	}
}

func TestZeroInitRead(t *testing.T) {
	h := newMemHarness(t, 3, 4, 1, 1, aig.MemZero, false)
	h.g.AddUpTo(1)
	var as []sat.Lit
	as = append(as, h.noWrite(0)...)
	as = append(as, h.noWrite(1)...)
	as = append(as, h.read(0, 1, 6)...)
	if got := h.s.Solve(append(as, h.rdEquals(0, 1, 0)...)...); got != sat.Sat {
		t.Fatalf("unwritten zero-init read must be 0")
	}
	if got := h.s.Solve(append(as, h.rdEquals(0, 1, 5)...)...); got != sat.Unsat {
		t.Fatalf("unwritten zero-init read must not be nonzero")
	}
}

func TestZeroInitOverwritten(t *testing.T) {
	h := newMemHarness(t, 3, 4, 1, 1, aig.MemZero, false)
	h.g.AddUpTo(1)
	var as []sat.Lit
	as = append(as, h.write(0, 0, 6, 15)...)
	as = append(as, h.noWrite(1)...)
	as = append(as, h.read(0, 1, 6)...)
	if got := h.s.Solve(append(as, h.rdEquals(0, 1, 0)...)...); got != sat.Unsat {
		t.Fatalf("overwritten location must not read 0")
	}
}

func TestArbitraryInitConsistency(t *testing.T) {
	// Two reads of the same never-written address must agree (eq. 6).
	h := newMemHarness(t, 3, 4, 1, 1, aig.MemArbitrary, false)
	h.g.AddUpTo(2)
	var as []sat.Lit
	as = append(as, h.noWrite(0)...)
	as = append(as, h.noWrite(1)...)
	as = append(as, h.noWrite(2)...)
	as = append(as, h.read(0, 0, 3)...)
	as = append(as, h.read(0, 2, 3)...)
	// They can both be 7.
	both := append(append([]sat.Lit{}, as...), h.rdEquals(0, 0, 7)...)
	both = append(both, h.rdEquals(0, 2, 7)...)
	if got := h.s.Solve(both...); got != sat.Sat {
		t.Fatalf("consistent arbitrary reads must be SAT")
	}
	// They cannot differ.
	diff := append(append([]sat.Lit{}, as...), h.rdEquals(0, 0, 7)...)
	diff = append(diff, h.rdEquals(0, 2, 8)...)
	if got := h.s.Solve(diff...); got != sat.Unsat {
		t.Fatalf("inconsistent arbitrary reads must be UNSAT (eq. 6)")
	}
}

func TestArbitraryInitDistinctAddressesFree(t *testing.T) {
	h := newMemHarness(t, 3, 4, 1, 1, aig.MemArbitrary, false)
	h.g.AddUpTo(1)
	var as []sat.Lit
	as = append(as, h.noWrite(0)...)
	as = append(as, h.noWrite(1)...)
	as = append(as, h.read(0, 0, 3)...)
	as = append(as, h.read(0, 1, 4)...)
	as = append(as, h.rdEquals(0, 0, 7)...)
	as = append(as, h.rdEquals(0, 1, 8)...)
	if got := h.s.Solve(as...); got != sat.Sat {
		t.Fatalf("reads of distinct unwritten addresses may differ")
	}
}

func TestArbitraryInitOverriddenByWrite(t *testing.T) {
	h := newMemHarness(t, 3, 4, 1, 1, aig.MemArbitrary, false)
	h.g.AddUpTo(2)
	var as []sat.Lit
	as = append(as, h.read(0, 0, 3)...)
	as = append(as, h.rdEquals(0, 0, 9)...) // initial value at 3 seen as 9
	as = append(as, h.noWrite(0)...)
	as = append(as, h.write(0, 1, 3, 4)...)
	as = append(as, h.noWrite(2)...)
	as = append(as, h.read(0, 2, 3)...)
	if got := h.s.Solve(append(as, h.rdEquals(0, 2, 4)...)...); got != sat.Sat {
		t.Fatalf("write must override arbitrary init")
	}
	if got := h.s.Solve(append(as, h.rdEquals(0, 2, 9)...)...); got != sat.Unsat {
		t.Fatalf("stale init value must not be readable after write")
	}
}

func TestMultiReadPortsShareInit(t *testing.T) {
	// Cross-port eq. 6: port 0 and port 1 reading the same unwritten
	// address at different depths must agree.
	h := newMemHarness(t, 3, 4, 1, 2, aig.MemArbitrary, false)
	h.g.AddUpTo(1)
	var as []sat.Lit
	as = append(as, h.noWrite(0)...)
	as = append(as, h.noWrite(1)...)
	as = append(as, h.read(0, 0, 5)...)
	as = append(as, h.read(1, 1, 5)...)
	as = append(as, h.rdEquals(0, 0, 3)...)
	as = append(as, h.rdEquals(1, 1, 12)...)
	if got := h.s.Solve(as...); got != sat.Unsat {
		t.Fatalf("cross-port init reads of same address must agree")
	}
}

func TestMultiWritePortForwarding(t *testing.T) {
	h := newMemHarness(t, 3, 4, 2, 1, aig.MemZero, false)
	h.g.AddUpTo(2)
	var as []sat.Lit
	// Port 0 writes addr 1, port 1 writes addr 2, same cycle.
	as = append(as, h.write(0, 0, 1, 10)...)
	as = append(as, h.write(1, 0, 2, 13)...)
	as = append(as, h.noWrite(1)...)
	as = append(as, h.noWrite(2)...)
	as = append(as, h.read(0, 1, 1)...)
	as = append(as, h.read(0, 2, 2)...)
	ok := append(append([]sat.Lit{}, as...), h.rdEquals(0, 1, 10)...)
	ok = append(ok, h.rdEquals(0, 2, 13)...)
	if got := h.s.Solve(ok...); got != sat.Sat {
		t.Fatalf("both write ports must forward")
	}
	bad := append(append([]sat.Lit{}, as...), h.rdEquals(0, 1, 13)...)
	if got := h.s.Solve(bad...); got != sat.Unsat {
		t.Fatalf("port data must not cross addresses")
	}
}

func TestSameCycleWritePriority(t *testing.T) {
	// Both ports write the same address in the same cycle; eq. 4's chain
	// gives the higher port index priority. (The paper assumes no data
	// races; this pins the tie-break our explicit model must match.)
	h := newMemHarness(t, 3, 4, 2, 1, aig.MemZero, false)
	h.g.AddUpTo(1)
	var as []sat.Lit
	as = append(as, h.write(0, 0, 3, 5)...)
	as = append(as, h.write(1, 0, 3, 9)...)
	as = append(as, h.noWrite(1)...)
	as = append(as, h.read(0, 1, 3)...)
	if got := h.s.Solve(append(as, h.rdEquals(0, 1, 9)...)...); got != sat.Sat {
		t.Fatalf("higher write port must win the race")
	}
	if got := h.s.Solve(append(as, h.rdEquals(0, 1, 5)...)...); got != sat.Unsat {
		t.Fatalf("lower write port must lose the race")
	}
}

func TestReadDisabledIsFree(t *testing.T) {
	h := newMemHarness(t, 3, 4, 1, 1, aig.MemZero, false)
	h.g.AddUpTo(1)
	var as []sat.Lit
	as = append(as, h.noWrite(0)...)
	as = append(as, h.noWrite(1)...)
	// RE low: data unconstrained.
	as = append(as, h.assumeBit(h.re[0], 1, false))
	as = append(as, h.assumeVec(h.raddr[0], 1, 6)...)
	if got := h.s.Solve(append(as, h.rdEquals(0, 1, 5)...)...); got != sat.Sat {
		t.Fatalf("disabled read must be unconstrained")
	}
}

// readPorts wires the enables and addresses of read ports 0 and 1.
type readPorts func(m *rtl.Module) (re [2]aig.Lit, ra [2]rtl.Vec)

// twins drives both read ports from one enable input and one address bus.
func twins(m *rtl.Module) ([2]aig.Lit, [2]rtl.Vec) {
	re, ra := m.InputBit("re"), m.Input("ra", 3)
	return [2]aig.Lit{re, re}, [2]rtl.Vec{ra, ra}
}

// newTwinHarness builds a 3-bit-address, 4-bit-data memory with one
// input-driven write port and two read ports wired by ports, and returns it
// with the design literal rd0 != rd1. setup runs on the fresh generator
// (abstraction choices).
func newTwinHarness(t *testing.T, init aig.MemInit, lazy bool, ports readPorts, setup func(*Generator)) (*memHarness, aig.Lit) {
	t.Helper()
	m := rtl.NewModule("twin")
	mem := m.Memory("mem", 3, 4, init)
	h := &memHarness{m: m}
	we, wa, wd := m.InputBit("we"), m.Input("wa", 3), m.Input("wd", 4)
	mem.Write(wa, wd, we)
	h.we, h.waddr, h.wdata = []aig.Lit{we}, []rtl.Vec{wa}, []rtl.Vec{wd}
	re, ra := ports(m)
	for r := range re {
		h.re = append(h.re, re[r])
		h.raddr = append(h.raddr, ra[r])
		h.rdata = append(h.rdata, mem.Read(ra[r], re[r]))
	}
	ne := m.Ne(h.rdata[0], h.rdata[1])
	h.s = sat.New()
	h.u = unroll.New(m.N, h.s, unroll.Initialized)
	h.g = NewGenerator(h.u, false)
	if lazy {
		h.g.EnableLazy()
	}
	if setup != nil {
		setup(h.g)
	}
	return h, ne
}

// solve runs the query, with the lazy refine loop when the generator is
// lazy (RefineLazy is a no-op otherwise).
func (h *memHarness) solve(as []sat.Lit) sat.Status {
	for {
		st := h.s.Solve(as...)
		if st != sat.Sat || h.g.RefineLazy() == 0 {
			return st
		}
	}
}

func modeName(lazy bool) string {
	if lazy {
		return "lazy"
	}
	return "eager"
}

// TestSharedReadForwarding: a read port with the same enable and address
// as an earlier port of its frame is shared, and the sharing keeps the
// §2.3 semantics: equal data while RE is high, both reads free while it
// is low (as TestReadDisabledIsFree requires of a single read).
func TestSharedReadForwarding(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		for _, init := range []aig.MemInit{aig.MemZero, aig.MemArbitrary} {
			h, ne := newTwinHarness(t, init, lazy, twins, nil)
			h.g.AddUpTo(2)
			name := fmt.Sprintf("%s/init=%v", modeName(lazy), init)
			if got := h.g.Sizes().SharedReads; got != 3 {
				t.Fatalf("%s: %d shared reads, want one per frame (3)", name, got)
			}
			for k := 0; k <= 2; k++ {
				as := []sat.Lit{h.u.Lit(ne, k), h.assumeBit(h.re[0], k, true)}
				if got := h.solve(as); got != sat.Unsat {
					t.Fatalf("%s frame %d: enabled twins must read equal data, got %v", name, k, got)
				}
				as[1] = h.assumeBit(h.re[0], k, false)
				if got := h.solve(as); got != sat.Sat {
					t.Fatalf("%s frame %d: disabled twins must stay free, got %v", name, k, got)
				}
			}
			// The shared read still sees the written word.
			var as []sat.Lit
			as = append(as, h.write(0, 0, 5, 9)...)
			as = append(as, h.noWrite(1)...)
			as = append(as, h.read(0, 2, 5)...)
			if got := h.solve(append(as, h.rdEquals(1, 2, 9)...)); got != sat.Sat {
				t.Fatalf("%s: shared read must forward the written word, got %v", name, got)
			}
			if got := h.solve(append(as, h.rdEquals(1, 2, 3)...)); got != sat.Unsat {
				t.Fatalf("%s: shared read must not see a stale word, got %v", name, got)
			}
		}
	}
}

// TestSharedReadCost: a shared read event costs exactly 2·DW clauses (the
// RE → RD = RD_twin equalities) and nothing else — no gates, no auxiliary
// variables, no eq. 6 pair, no lazily tracked read.
func TestSharedReadCost(t *testing.T) {
	const depth, dw = 4, 4
	for _, lazy := range []bool{false, true} {
		h1, _ := newTwinHarness(t, aig.MemArbitrary, lazy, twins,
			func(g *Generator) { g.SetReadPortEnabled(0, 1, false) })
		h2, _ := newTwinHarness(t, aig.MemArbitrary, lazy, twins, nil)
		h1.g.AddUpTo(depth)
		h2.g.AddUpTo(depth)
		one, two := h1.g.Sizes(), h2.g.Sizes()
		if two.SharedReads != depth+1 || one.SharedReads != 0 {
			t.Fatalf("%s: shared reads %d/%d, want 0/%d", modeName(lazy), one.SharedReads, two.SharedReads, depth+1)
		}
		added := two.Clauses() + two.InitClauses - one.Clauses() - one.InitClauses
		if added != 2*dw*(depth+1) {
			t.Errorf("%s: shared events added %d clauses, want 2·DW per event = %d", modeName(lazy), added, 2*dw*(depth+1))
		}
		if two.InitPairs != one.InitPairs || two.Gates != one.Gates || two.AuxVars != one.AuxVars || two.LazyReads != one.LazyReads {
			t.Errorf("%s: shared events built more than their equalities: %+v vs %+v", modeName(lazy), two, one)
		}
	}
}

// spanSink collects the shared_reads fields of emm.generate span ends.
type spanSink struct{ shared []int }

func (s *spanSink) Emit(e obs.Event) {
	if e.Ev != "end" || e.Name != "emm.generate" {
		return
	}
	for _, kv := range e.Fields {
		if kv.K == "shared_reads" {
			s.shared = append(s.shared, kv.V.(int))
		}
	}
}

// TestSharedReadsObserved: the shared-read tally reaches Sizes, the
// registry counter, the per-frame span ends and the stats line.
func TestSharedReadsObserved(t *testing.T) {
	h, _ := newTwinHarness(t, aig.MemZero, false, twins, nil)
	reg, sink := obs.NewRegistry(), &spanSink{}
	h.g.AttachObs(obs.New(reg, sink))
	h.g.AddUpTo(2)
	if got := h.g.Sizes().SharedReads; got != 3 {
		t.Fatalf("Sizes.SharedReads = %d, want 3", got)
	}
	if got := reg.Snapshot()[obs.MEMMSharedReads]; got != 3 {
		t.Fatalf("%s = %d, want 3", obs.MEMMSharedReads, got)
	}
	if fmt.Sprint(sink.shared) != "[1 1 1]" {
		t.Fatalf("emm.generate shared_reads per frame = %v, want [1 1 1]", sink.shared)
	}
	if s := h.g.Sizes().String(); !strings.HasSuffix(s, ", 3 shared reads") {
		t.Fatalf("Sizes.String() = %q, want the shared-read count", s)
	}
}

// TestNearDuplicateReadsNotShared: a read that differs from port 0 in one
// address bit or in its enable literal, or whose twin is abstracted away,
// keeps its own chain and the full forwarding semantics.
func TestNearDuplicateReadsNotShared(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ports readPorts
		setup func(*Generator)
		// apart returns assumptions under which a correct model lets the
		// two reads differ but a wrongly shared pair would not.
		apart func(h *memHarness) []sat.Lit
	}{
		{
			name: "address bit",
			ports: func(m *rtl.Module) ([2]aig.Lit, [2]rtl.Vec) {
				re, ra := twins(m)
				ra[1] = append(rtl.Vec{m.InputBit("ra1_0")}, ra[0][1:]...)
				return re, ra
			},
			apart: func(h *memHarness) []sat.Lit {
				as := append(h.read(0, 1, 5), h.read(1, 1, 4)...)
				return append(as, h.write(0, 0, 5, 9)...)
			},
		},
		{
			name: "enable",
			ports: func(m *rtl.Module) ([2]aig.Lit, [2]rtl.Vec) {
				re, ra := twins(m)
				re[1] = m.InputBit("re1")
				return re, ra
			},
			apart: func(h *memHarness) []sat.Lit {
				return append(h.read(1, 1, 5), h.assumeBit(h.re[0], 1, false))
			},
		},
		{
			name:  "twin disabled",
			ports: twins,
			setup: func(g *Generator) { g.SetReadPortEnabled(0, 0, false) },
			apart: func(h *memHarness) []sat.Lit { return h.read(1, 1, 5) },
		},
	} {
		for _, lazy := range []bool{false, true} {
			name := tc.name + "/" + modeName(lazy)
			h, ne := newTwinHarness(t, aig.MemZero, lazy, tc.ports, tc.setup)
			h.g.AddUpTo(2)
			if got := h.g.Sizes().SharedReads; got != 0 {
				t.Fatalf("%s: %d reads shared, want 0", name, got)
			}
			if got := h.solve(append(tc.apart(h), h.u.Lit(ne, 1))); got != sat.Sat {
				t.Fatalf("%s: reads must be free to differ, got %v", name, got)
			}
			var as []sat.Lit
			as = append(as, h.write(0, 0, 5, 9)...)
			as = append(as, h.noWrite(1)...)
			as = append(as, h.read(1, 2, 5)...)
			if got := h.solve(append(as, h.rdEquals(1, 2, 9)...)); got != sat.Sat {
				t.Fatalf("%s: port 1 must forward the written word, got %v", name, got)
			}
			if got := h.solve(append(as, h.rdEquals(1, 2, 0)...)); got != sat.Unsat {
				t.Fatalf("%s: port 1 must not read the initial word, got %v", name, got)
			}
		}
	}
}

// TestSharedReadsStayInFrame: with a constant enable and address, every
// frame's read events carry the same literals, yet only events of one
// frame are shared — a read after a write must not be tied to a read
// before it.
func TestSharedReadsStayInFrame(t *testing.T) {
	constPorts := func(m *rtl.Module) ([2]aig.Lit, [2]rtl.Vec) {
		ra := m.Const(3, 2)
		return [2]aig.Lit{aig.True, aig.True}, [2]rtl.Vec{ra, ra}
	}
	for _, lazy := range []bool{false, true} {
		name := modeName(lazy)
		h, _ := newTwinHarness(t, aig.MemZero, lazy, constPorts, nil)
		h.g.AddUpTo(2)
		if got := h.g.Sizes().SharedReads; got != 3 {
			t.Fatalf("%s: %d shared reads, want port 1 once per frame (3)", name, got)
		}
		var as []sat.Lit
		as = append(as, h.write(0, 0, 2, 9)...)
		as = append(as, h.noWrite(1)...)
		for _, c := range []struct {
			r, frame int
			val      uint64
			want     sat.Status
		}{
			{0, 0, 0, sat.Sat}, {1, 0, 0, sat.Sat}, // before the write: zero init
			{0, 1, 9, sat.Sat}, {1, 1, 9, sat.Sat}, // after it: the written word
			{0, 1, 0, sat.Unsat}, {1, 1, 0, sat.Unsat},
		} {
			if got := h.solve(append(as, h.rdEquals(c.r, c.frame, c.val)...)); got != c.want {
				t.Fatalf("%s: port %d at frame %d reading %d: got %v, want %v", name, c.r, c.frame, c.val, got, c.want)
			}
		}
	}
}

func TestDisabledMemorySkipsConstraints(t *testing.T) {
	h := newMemHarness(t, 3, 4, 1, 1, aig.MemZero, false)
	h.g.SetMemoryEnabled(0, false)
	h.g.AddUpTo(2)
	if h.g.Sizes().Clauses() != 0 {
		t.Fatalf("disabled memory must add no constraints")
	}
	var as []sat.Lit
	as = append(as, h.noWrite(0)...)
	as = append(as, h.noWrite(1)...)
	as = append(as, h.read(0, 1, 6)...)
	if got := h.s.Solve(append(as, h.rdEquals(0, 1, 5)...)...); got != sat.Sat {
		t.Fatalf("disabled memory leaves reads free")
	}
}

func TestDisabledWritePortExcludedFromChain(t *testing.T) {
	h := newMemHarness(t, 3, 4, 2, 1, aig.MemZero, false)
	h.g.SetWritePortEnabled(0, 1, false)
	h.g.AddUpTo(1)
	var as []sat.Lit
	// Port 1 writes, but it is abstracted out of the chain: the read sees
	// the location as unwritten (zero).
	as = append(as, h.assumeBit(h.we[0], 0, false))
	as = append(as, h.write(1, 0, 3, 9)...)
	as = append(as, h.noWrite(1)...)
	as = append(as, h.read(0, 1, 3)...)
	if got := h.s.Solve(append(as, h.rdEquals(0, 1, 0)...)...); got != sat.Sat {
		t.Fatalf("abstracted write port must not forward")
	}
}

func TestAbstractionAfterFramesPanics(t *testing.T) {
	h := newMemHarness(t, 3, 4, 1, 1, aig.MemZero, false)
	h.g.AddUpTo(0)
	defer func() {
		if recover() == nil {
			t.Fatalf("late abstraction must panic")
		}
	}()
	h.g.SetMemoryEnabled(0, false)
}

func TestImageInitRejected(t *testing.T) {
	m := rtl.NewModule("t")
	m.Memory("rom", 2, 4, aig.MemImage)
	s := sat.New()
	u := unroll.New(m.N, s, unroll.Initialized)
	defer func() {
		if recover() == nil {
			t.Fatalf("image-initialized memory must be rejected by EMM")
		}
	}()
	NewGenerator(u, false)
}

// TestSizesMatchPaperFormulas checks the §4.1 closed forms: at depth k a
// read port against W write ports costs (4m+1)kW address clauses, 3kW
// gates, and 2nkW+2n+1 read-data clauses (with a symbolic initial word).
// A zero-initialized memory costs 2nkW+n+1 read-data clauses and no eq. 6
// pairs, the direct eq. 1 encoding builds 2kW gates (s and the N chain, no
// S), and disabling eq. 6 drops the pairs alone.
func TestSizesMatchPaperFormulas(t *testing.T) {
	type cfg struct {
		aw, dw, nw, nr, depth int
		init                  aig.MemInit
		direct, noEq6         bool
	}
	for _, c := range []cfg{
		{aw: 4, dw: 8, nw: 1, nr: 1, depth: 5, init: aig.MemArbitrary},
		{aw: 5, dw: 6, nw: 2, nr: 1, depth: 4, init: aig.MemArbitrary},
		{aw: 3, dw: 4, nw: 2, nr: 3, depth: 4, init: aig.MemArbitrary},
		{aw: 10, dw: 32, nw: 1, nr: 1, depth: 6, init: aig.MemArbitrary},
		{aw: 3, dw: 4, nw: 2, nr: 3, depth: 4, init: aig.MemZero},
		{aw: 4, dw: 8, nw: 1, nr: 1, depth: 5, init: aig.MemArbitrary, direct: true},
		{aw: 3, dw: 4, nw: 2, nr: 3, depth: 4, init: aig.MemArbitrary, direct: true},
		{aw: 3, dw: 4, nw: 2, nr: 3, depth: 4, init: aig.MemArbitrary, noEq6: true},
	} {
		h := newMemHarness(t, c.aw, c.dw, c.nw, c.nr, c.init, false)
		if c.direct {
			h.g.DisableExclusivity()
		}
		if c.noEq6 {
			h.g.DisableInitConsistency()
		}
		h.g.AddUpTo(c.depth)
		sz := h.g.Sizes()
		m, n := c.aw, c.dw
		sumK := 0
		for k := 0; k <= c.depth; k++ {
			sumK += k
		}
		// eq. 6 pairs: all unordered pairs of read events across depths
		// and ports: C((depth+1)·R, 2).
		ev := (c.depth + 1) * c.nr
		wantAddr := (4*m + 1) * sumK * c.nw * c.nr
		wantGates := 3 * sumK * c.nw * c.nr
		wantRD := (2*n*sumK*c.nw + (2*n+1)*(c.depth+1)) * c.nr
		wantPairs := ev * (ev - 1) / 2
		if c.init == aig.MemZero {
			wantRD = (2*n*sumK*c.nw + (n+1)*(c.depth+1)) * c.nr
			wantPairs = 0
		}
		if c.direct {
			wantGates = 2 * sumK * c.nw * c.nr
		}
		if c.noEq6 {
			wantPairs = 0
		}
		if sz.AddrClauses != wantAddr {
			t.Errorf("cfg %+v: addr clauses %d want %d", c, sz.AddrClauses, wantAddr)
		}
		if sz.Gates != wantGates {
			t.Errorf("cfg %+v: gates %d want %d", c, sz.Gates, wantGates)
		}
		if sz.ReadDataClauses != wantRD {
			t.Errorf("cfg %+v: read-data clauses %d want %d", c, sz.ReadDataClauses, wantRD)
		}
		if sz.InitPairs != wantPairs {
			t.Errorf("cfg %+v: init pairs %d want %d", c, sz.InitPairs, wantPairs)
		}
		if sz.String() == "" {
			t.Errorf("empty sizes string")
		}
	}
}

// TestQuadraticGrowth confirms the constraint count grows quadratically
// with depth (the paper's headline complexity claim).
func TestQuadraticGrowth(t *testing.T) {
	clausesAt := func(depth int) int {
		h := newMemHarness(t, 4, 8, 1, 1, aig.MemZero, false)
		h.g.AddUpTo(depth)
		return h.g.Sizes().Clauses()
	}
	c10, c20, c40 := clausesAt(10), clausesAt(20), clausesAt(40)
	r1 := float64(c20) / float64(c10)
	r2 := float64(c40) / float64(c20)
	// Quadratic: doubling depth should ~4x the count.
	if r1 < 3 || r1 > 5 || r2 < 3 || r2 > 5 {
		t.Fatalf("growth not quadratic: %d %d %d (ratios %.2f %.2f)", c10, c20, c40, r1, r2)
	}
}

func TestForceArbitraryOverridesZeroInit(t *testing.T) {
	h := newMemHarness(t, 3, 4, 1, 1, aig.MemZero, true)
	h.g.AddUpTo(1)
	var as []sat.Lit
	as = append(as, h.noWrite(0)...)
	as = append(as, h.noWrite(1)...)
	as = append(as, h.read(0, 1, 6)...)
	// With forced arbitrary init, the unwritten read is NOT pinned to 0.
	if got := h.s.Solve(append(as, h.rdEquals(0, 1, 5)...)...); got != sat.Sat {
		t.Fatalf("forced arbitrary init must free unwritten reads")
	}
}

func TestGeneratorFramesAccounting(t *testing.T) {
	h := newMemHarness(t, 3, 4, 1, 1, aig.MemZero, false)
	if h.g.Frames() != 0 {
		t.Fatalf("fresh generator has frames")
	}
	h.g.AddUpTo(4)
	if h.g.Frames() != 5 {
		t.Fatalf("expected 5 frames processed, got %d", h.g.Frames())
	}
	// Idempotent.
	h.g.AddUpTo(3)
	if h.g.Frames() != 5 {
		t.Fatalf("AddUpTo must not regress")
	}
}

// TestNoExclusivityEquivalence: the direct eq. 1 encoding and the eq. 4
// chain encoding must agree on every forced read value.
func TestNoExclusivityEquivalence(t *testing.T) {
	script := func(h *memHarness) []sat.Lit {
		var as []sat.Lit
		as = append(as, h.write(0, 0, 2, 7)...)
		as = append(as, h.write(1, 1, 2, 11)...) // port 1 overwrites at frame 1
		as = append(as, h.assumeBit(h.we[0], 1, false))
		as = append(as, h.assumeBit(h.we[1], 0, false))
		as = append(as, h.noWrite(2)...)
		as = append(as, h.read(0, 2, 2)...)
		return as
	}
	for _, disable := range []bool{false, true} {
		h := newMemHarness(t, 3, 4, 2, 1, aig.MemZero, false)
		if disable {
			h.g.DisableExclusivity()
		}
		h.g.AddUpTo(2)
		as := script(h)
		if got := h.s.Solve(append(as, h.rdEquals(0, 2, 11)...)...); got != sat.Sat {
			t.Fatalf("disable=%v: most recent write must be readable", disable)
		}
		if got := h.s.Solve(append(as, h.rdEquals(0, 2, 7)...)...); got != sat.Unsat {
			t.Fatalf("disable=%v: stale write must not be readable", disable)
		}
		if got := h.s.Solve(append(as, h.rdEquals(0, 2, 0)...)...); got != sat.Unsat {
			t.Fatalf("disable=%v: overwritten init must not be readable", disable)
		}
	}
}

// TestNoExclusivityRandomAgreement fuzzes both encodings against each
// other on random scripted traffic.
func TestNoExclusivityRandomAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for iter := 0; iter < 25; iter++ {
		aw, dw := 1+rng.Intn(2), 1+rng.Intn(3)
		depth := 2 + rng.Intn(4)
		init := aig.MemZero
		if rng.Intn(2) == 0 {
			init = aig.MemArbitrary
		}
		h1 := newMemHarness(t, aw, dw, 1, 1, init, false)
		h2 := newMemHarness(t, aw, dw, 1, 1, init, false)
		h2.g.DisableExclusivity()
		h1.g.AddUpTo(depth)
		h2.g.AddUpTo(depth)
		amask := uint64(1)<<uint(aw) - 1
		dmask := uint64(1)<<uint(dw) - 1
		var as1, as2 []sat.Lit
		for f := 0; f <= depth; f++ {
			we := rng.Intn(2) == 1
			wa, wd := rng.Uint64()&amask, rng.Uint64()&dmask
			ra := rng.Uint64() & amask
			as1 = append(as1, h1.assumeBit(h1.we[0], f, we))
			as2 = append(as2, h2.assumeBit(h2.we[0], f, we))
			as1 = append(as1, h1.assumeVec(h1.waddr[0], f, wa)...)
			as2 = append(as2, h2.assumeVec(h2.waddr[0], f, wa)...)
			as1 = append(as1, h1.assumeVec(h1.wdata[0], f, wd)...)
			as2 = append(as2, h2.assumeVec(h2.wdata[0], f, wd)...)
			as1 = append(as1, h1.read(0, f, ra)...)
			as2 = append(as2, h2.read(0, f, ra)...)
		}
		for v := uint64(0); v <= dmask; v++ {
			r1 := h1.s.Solve(append(as1, h1.rdEquals(0, depth, v)...)...)
			r2 := h2.s.Solve(append(as2, h2.rdEquals(0, depth, v)...)...)
			if r1 != r2 {
				t.Fatalf("iter %d value %d: chain=%v direct=%v", iter, v, r1, r2)
			}
		}
	}
}
