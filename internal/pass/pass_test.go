package pass

import (
	"testing"

	"emmver/internal/aig"
	"emmver/internal/obs"
	"emmver/internal/rtl"
)

// fixture: a design with a relevant counter, a junk free-running counter,
// an inductively constant flag gating a second memory's write, and two
// memories — one read by the property, one completely dead.
func fixture() *rtl.Module {
	m := rtl.NewModule("fix")
	junk := m.Register("junk", 6, 0)
	junk.SetNext(m.Inc(junk.Q))

	flag := m.BitReg("flag", false)
	flag.SetNext(rtl.Vec{flag.Bit()}) // holds 0 forever: inductively constant

	memA := m.Memory("memA", 3, 4, aig.MemArbitrary)
	addr := m.Input("a", 3)
	memA.Write(addr, m.Input("wd", 4), m.InputBit("we"))
	rd := memA.Read(addr, m.InputBit("re"))

	memB := m.Memory("memB", 3, 4, aig.MemArbitrary)
	memB.Write(m.Input("ba", 3), m.Input("bd", 4), flag.Bit()) // gated by constant-0 flag
	memB.Read(m.Input("bra", 3), m.InputBit("bre"))

	c := m.Register("cnt", 3, 0)
	c.SetNext(m.Inc(c.Q))
	m.Done(junk, flag, c)
	m.AssertAlways("p", m.N.And(m.EqConst(c.Q, 7), m.EqConst(rd, 15)).Not())
	return m
}

func TestSpecValidation(t *testing.T) {
	for _, good := range []string{"", "none", "off", "coi", "coi,sweep,ports,dedup", " coi , dedup "} {
		if err := ValidSpec(good); err != nil {
			t.Errorf("ValidSpec(%q) = %v, want nil", good, err)
		}
	}
	for _, bad := range []string{"nope", "coi,bogus"} {
		if err := ValidSpec(bad); err == nil {
			t.Errorf("ValidSpec(%q) = nil, want error", bad)
		}
	}
}

func TestCompileDisabledIsIdentity(t *testing.T) {
	m := fixture()
	c, err := Compile(m.N, []int{0}, Options{Spec: SpecNone})
	if err != nil {
		t.Fatal(err)
	}
	if c.N != m.N {
		t.Fatalf("disabled pipeline must return the source netlist")
	}
	if !c.Map.IsIdentity() {
		t.Fatalf("disabled pipeline must return the identity mapping")
	}
	if len(c.Props) != 1 || c.Props[0] != 0 {
		t.Fatalf("props %v", c.Props)
	}
}

func TestCompileBadSpecOrProp(t *testing.T) {
	m := fixture()
	if _, err := Compile(m.N, []int{0}, Options{Spec: "bogus"}); err == nil {
		t.Fatalf("bad spec must error")
	}
	if _, err := Compile(m.N, []int{99}, Options{}); err == nil {
		t.Fatalf("out-of-range property must error")
	}
}

func TestCoiDropsJunkAndDeadMemory(t *testing.T) {
	m := fixture()
	c, err := Compile(m.N, []int{0}, Options{Spec: "coi"})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range c.N.Latches {
		if l.Name[:4] == "junk" {
			t.Errorf("junk latch %q survived COI", l.Name)
		}
	}
	if len(c.N.Memories) != 1 || c.N.Memories[0].Name != "memA" {
		t.Fatalf("COI must keep exactly memA, got %d memories", len(c.N.Memories))
	}
	if c.Map.SourceMem(0) != 0 {
		t.Fatalf("memA source index = %d, want 0", c.Map.SourceMem(0))
	}
}

func TestSweepFoldsConstantFlag(t *testing.T) {
	m := fixture()
	c, err := Compile(m.N, []int{0}, Options{Spec: "sweep"})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range c.N.Latches {
		if l.Name == "flag" {
			t.Errorf("inductively constant flag survived sweep")
		}
	}
}

func TestPortsDropsDisabledWriteAndDeadReads(t *testing.T) {
	m := fixture()
	// sweep first so memB's write enable becomes constant false; ports
	// then drops that write port, and memB entirely (its read is outside
	// the property cone).
	c, err := Compile(m.N, []int{0}, Options{Spec: "sweep,ports"})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.N.Memories) != 1 || c.N.Memories[0].Name != "memA" {
		t.Fatalf("ports must keep exactly memA, got %d memories", len(c.N.Memories))
	}
	mem := c.N.Memories[0]
	if len(mem.Reads) != 1 || len(mem.Writes) != 1 {
		t.Fatalf("memA ports: %d reads %d writes, want 1/1", len(mem.Reads), len(mem.Writes))
	}
	if c.Map.SourceRead(0, 0) != 0 || c.Map.SourceWrite(0, 0) != 0 {
		t.Fatalf("port back-map wrong: read->%d write->%d", c.Map.SourceRead(0, 0), c.Map.SourceWrite(0, 0))
	}
}

func TestMappingComposesAcrossPipeline(t *testing.T) {
	m := fixture()
	c, err := Compile(m.N, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Applied) != 4 || len(c.Deltas) != 4 {
		t.Fatalf("expected 4 applied passes, got %v", c.Applied)
	}
	// Every compiled latch must round-trip to a source latch with the
	// same name.
	for ci, l := range c.N.Latches {
		si := c.Map.SourceLatchIndex(ci)
		if si < 0 || si >= len(m.N.Latches) {
			t.Fatalf("latch %d maps to out-of-range source index %d", ci, si)
		}
		if m.N.Latches[si].Name != l.Name {
			t.Errorf("latch %d (%q) maps to source %d (%q)", ci, l.Name, si, m.N.Latches[si].Name)
		}
		cid, ok := c.Map.CompiledLatch(m.N.Latches[si].Node)
		if !ok || cid != l.Node {
			t.Errorf("CompiledLatch round-trip failed for %q", l.Name)
		}
	}
	// Dropped latches must report no compiled counterpart.
	for si, l := range m.N.Latches {
		if l.Name[:4] != "junk" && l.Name != "flag" {
			continue
		}
		if _, ok := c.Map.CompiledLatch(l.Node); ok {
			t.Errorf("dropped latch %q still has a compiled counterpart", l.Name)
		}
		_ = si
	}
	// The dead memB is gone: the one compiled memory is the source memA.
	if len(c.N.Memories) != 1 {
		t.Errorf("want only memA compiled, got %d memories", len(c.N.Memories))
	} else if si := c.Map.SourceMem(0); si != 0 {
		t.Errorf("the compiled memory must be memA (source 0), got source %d", si)
	}
}

func TestCompilePublishesCounters(t *testing.T) {
	m := fixture()
	reg := obs.NewRegistry()
	ob := obs.New(reg, nil)
	if _, err := Compile(m.N, []int{0}, Options{Obs: ob}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap[obs.MPassRuns] != 1 {
		t.Errorf("pass.runs = %d, want 1", snap[obs.MPassRuns])
	}
	if snap[obs.MPassLatchesRemoved] == 0 {
		t.Errorf("pass.latches_removed = 0, want > 0 (junk + flag dropped)")
	}
	if snap[obs.MPassMemPortsRemoved] == 0 {
		t.Errorf("pass.mem_ports_removed = 0, want > 0 (memB ports dropped)")
	}
}
