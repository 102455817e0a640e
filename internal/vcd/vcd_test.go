package vcd

import (
	"bytes"
	"strings"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/bmc"
	"emmver/internal/rtl"
)

func TestSplitIndexed(t *testing.T) {
	cases := []struct {
		in   string
		base string
		idx  int
	}{
		{"cnt[3]", "cnt", 3},
		{"cnt[0]", "cnt", 0},
		{"plain", "plain", -1},
		{"weird]", "weird]", -1},
		{"neg[-1]", "neg[-1]", -1},
	}
	for _, c := range cases {
		b, i := splitIndexed(c.in)
		if b != c.base || i != c.idx {
			t.Fatalf("splitIndexed(%q) = %q,%d", c.in, b, i)
		}
	}
}

func TestIDFor(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		id := idFor(i)
		if id == "" || seen[id] {
			t.Fatalf("idFor(%d) = %q duplicate or empty", i, id)
		}
		seen[id] = true
		for j := 0; j < len(id); j++ {
			if id[j] < 33 || id[j] > 126 {
				t.Fatalf("unprintable id char")
			}
		}
	}
}

func TestDumpWitness(t *testing.T) {
	// Counter reaching 5: dump the CE and check the VCD structure.
	m := rtl.NewModule("dut")
	c := m.Register("cnt", 3, 0)
	en := m.InputBit("en")
	c.Update(en, m.Inc(c.Q))
	m.Done(c)
	m.AssertAlways("ne5", m.EqConst(c.Q, 5).Not())
	r := bmc.Check(m.N, 0, bmc.Options{MaxDepth: 10, ValidateWitness: true})
	if r.Kind != bmc.KindCE {
		t.Fatalf("expected CE, got %v", r)
	}
	var buf bytes.Buffer
	if err := DumpWitness(&buf, m.N, r.Witness, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"$var wire 3 ", "cnt [2:0]", "$var wire 1 ", "en", "prop_ok",
		"$enddefinitions", "#0", "#5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in VCD:\n%s", want, out)
		}
	}
	// At the violation cycle the property flag must have dropped to 0;
	// the counter reaches binary 101.
	if !strings.Contains(out, "b101 ") {
		t.Fatalf("counter never showed 101:\n%s", out)
	}
}

func TestDumpWitnessWithMemoryInit(t *testing.T) {
	m := rtl.NewModule("dut")
	mem := m.Memory("mem", 2, 3, aig.MemArbitrary)
	rd := mem.Read(m.Const(2, 2), aig.True)
	m.AssertAlways("ne5", m.EqConst(rd, 5).Not())
	r := bmc.Check(m.N, 0, bmc.Options{Engine: bmc.EngineBMC2, MaxDepth: 3, ValidateWitness: true})
	if r.Kind != bmc.KindCE {
		t.Fatalf("expected CE, got %v", r)
	}
	var buf bytes.Buffer
	if err := DumpWitness(&buf, m.N, r.Witness, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "prop_ok") {
		t.Fatalf("bad VCD")
	}
}

func TestSparseIndicesFallBackToScalars(t *testing.T) {
	m := rtl.NewModule("dut")
	m.N.NewInput("odd[1]")
	m.N.NewInput("odd[3]")
	sigs := collectSignals(m.N)
	if len(sigs) != 2 {
		t.Fatalf("sparse bus must split into scalars: %d", len(sigs))
	}
}
