package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/aiger"
	"emmver/internal/btor2"
	"emmver/internal/designs"
	"emmver/internal/expmem"
	"emmver/internal/pass"
	"emmver/internal/spec"
)

// TestCompiledNetlistKeysPinned pins NetlistKey of the default compile
// pipeline's output on the in-tree designs. The key covers every node,
// latch, port and property of the compiled netlist, so a change to a pass
// that moves one node id (or drops one node more or less) shows here, and
// the cache keys of every served design move with it. A change that means
// to alter the compiled netlists updates these keys on purpose. gated.v
// compiles to planted.v's netlist: the chain behind its constant register
// leaves no trace.
func TestCompiledNetlistKeysPinned(t *testing.T) {
	all := func(n *aig.Netlist) []int {
		out := make([]int, len(n.Props))
		for i := range out {
			out[i] = i
		}
		return out
	}
	type tc struct {
		name  string
		n     *aig.Netlist
		props []int
		key   string
	}
	var cases []tc
	for _, f := range []struct{ file, key string }{
		{"growth.v", "18f0f2ffe924ae8c8c7092531e95aeb4071d6f2f6ec3c3c40bff9c3cc1f31b3b"},
		{"planted.v", "b6392d98d91a45a1dc1fe2094957b176a405b6673fa6aee92f9b40a501861887"},
		{"wedge.v", "526bb5e49ee8eb648b8198ed83cdd5825390e4e75d62331b0e5d086043819654"},
		{"gated.v", "b6392d98d91a45a1dc1fe2094957b176a405b6673fa6aee92f9b40a501861887"},
	} {
		src, err := os.ReadFile(filepath.Join("testdata", f.file))
		if err != nil {
			t.Fatal(err)
		}
		n, err := ParseNetlist("verilog", src, "", nil)
		if err != nil {
			t.Fatalf("%s: %v", f.file, err)
		}
		cases = append(cases, tc{f.file, n, all(n), f.key})
	}

	q := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 4, DataW: 8, StackAW: 4})
	qn := q.Netlist()
	cases = append(cases,
		tc{"quicksort", qn, all(qn), "d333a814f23e4810ca0cb33895cb13cfc5a5db631da3703205711bb661053430"},
		tc{"quicksort p1", qn, []int{q.P1Index}, "bbca8939b7c0b6b109fd26a5cc56dc6a32da9cfccc510375e5abaad15e78b61c"},
		tc{"quicksort p2", qn, []int{q.P2Index}, "94e49df39f203303078e33090c510a24de2bea52b7938fd0c026fdbfc1f23b71"})

	fn := designs.NewImageFilter(designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 16}).Netlist()
	fe, _, err := expmem.Expand(fn)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		tc{"filter", fn, all(fn), "f11fd5a24b95e801e452558bf32ee2bd1d20d2295eb1c2abe59fff5e6180eb1c"},
		tc{"filter prop 3", fn, []int{3}, "b52b2083aac3b7ff5e152aaf68335d7dd884556ba9c5eff10d81b7947a193b62"},
		tc{"filter explicit", fe, all(fe), "f6e98bd04914f7bccdfd233da67a34ad3b6e8fc627372dcbb138c24aa8d89e25"})

	l := designs.NewLookup(designs.LookupConfig{AW: 4, DW: 6, NumProps: 8, Latency: 6})
	ln := l.Netlist()
	cases = append(cases,
		tc{"lookup", ln, all(ln), "ffc992ef787615c6c3366e026f9a2210441351d60328a1df46f2becdeacb4346"},
		tc{"lookup inv", ln, []int{l.InvariantIndex}, "d58f3b85cc931d833aa5432351de5c1900d0d2775559894a64fb5d5930f25b8c"},
		tc{"lookup reach 0", ln, []int{l.ReachIndices[0]}, "ba810b476ee98f661d9ca5be7aad2c18fa13f42287f2dc35bdb11adfbd0ca6d2"})

	for _, c := range cases {
		cp, err := pass.Compile(c.n, c.props, pass.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := NetlistKey(cp.N, cp.Props); got != c.key {
			t.Errorf("%s: compiled netlist key %s, pinned %s", c.name, got, c.key)
		}
	}
}

// TestSweepDropsGatedChain checks that the constant sweep stops at
// constants: on gated.v, `coi,sweep` alone keeps none of the multiply
// chain that only a gate of the constant register armed reads. The chain's
// registers are gone, and the ports pass, which drops whatever the cone
// no longer reaches, finds nothing left to drop.
func TestSweepDropsGatedChain(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "gated.v"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := ParseNetlist("verilog", src, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := pass.Compile(n, []int{0}, pass.Options{Spec: "coi,sweep"})
	if err != nil {
		t.Fatal(err)
	}
	ports, err := pass.Compile(n, []int{0}, pass.Options{Spec: "coi,sweep,ports"})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range sweep.N.Latches {
		if l.Name[0] == 's' || l.Name == "armed" {
			t.Errorf("coi,sweep kept latch %s of the gated chain", l.Name)
		}
	}
	if got, want := pass.CountsOf(sweep.N), pass.CountsOf(ports.N); got != want {
		t.Errorf("coi,sweep left %+v, ports then cut it to %+v", got, want)
	}
	if a := sweep.N.NumAnds(); a > 200 {
		t.Errorf("coi,sweep kept %d gates; a single 16-bit multiply stage has more", a)
	}
}

// exportBTOR2 serializes a netlist as BTOR2 text.
func exportBTOR2(t *testing.T, n *aig.Netlist) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := btor2.Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// lookupBTOR2 is the lookup design, whose registers and memories are many
// enough that an unordered build shows, as BTOR2 text.
func lookupBTOR2(t *testing.T) []byte {
	l := designs.NewLookup(designs.LookupConfig{AW: 4, DW: 6, NumProps: 8, Latency: 6})
	return exportBTOR2(t, l.Netlist())
}

// TestBTOR2ReadsKeyAlike reads one BTOR2 source several times: each read
// must build the same netlist, so the raw key, the key compiled under
// passes "none" (which keeps the netlist as read) and the key compiled by
// the default pipeline never change. On quicksort the default pipeline's
// output depended on the build order too, and so did the solver's work.
func TestBTOR2ReadsKeyAlike(t *testing.T) {
	q := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 4, DataW: 8, StackAW: 4})
	readsKeyAlike(t, "lookup", "btor2", lookupBTOR2(t), "", nil)
	readsKeyAlike(t, "quicksort", "btor2", exportBTOR2(t, q.Netlist()), "", nil)
}

// TestVerilogAndAIGERReadsKeyAlike pins the same for the other two
// formats: the server's source index answers a byte-identical
// resubmission with the netlist key of an earlier read, which is sound
// only if every read of the same bytes, top and parameters builds the
// same netlist.
func TestVerilogAndAIGERReadsKeyAlike(t *testing.T) {
	qsort, err := os.ReadFile(filepath.Join("..", "verilog", "testdata", "quicksort.v"))
	if err != nil {
		t.Fatal(err)
	}
	gated, err := os.ReadFile(filepath.Join("testdata", "gated.v"))
	if err != nil {
		t.Fatal(err)
	}
	readsKeyAlike(t, "quicksort.v", "verilog", qsort, "", nil)
	readsKeyAlike(t, "quicksort.v params", "verilog", qsort, "quicksort", map[string]uint64{"AW": 4, "DW": 8, "SW": 4})
	readsKeyAlike(t, "gated.v", "verilog", gated, "", nil)
	readsKeyAlike(t, "branching always @(*)", "verilog", []byte(combBranchSrc), "", nil)
	readsKeyAlike(t, "two modules, first top", "verilog", []byte(twoModuleSrc), "counter", nil)
	readsKeyAlike(t, "two modules, params", "verilog", []byte(twoModuleSrc), "", map[string]uint64{"W": 5})

	fn := designs.NewImageFilter(designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 16}).Netlist()
	fe, _, err := expmem.Expand(fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, binary := range []bool{false, true} {
		var buf bytes.Buffer
		if err := aiger.Write(&buf, fe, binary); err != nil {
			t.Fatal(err)
		}
		readsKeyAlike(t, fmt.Sprintf("filter explicit, binary %v", binary), "aiger", buf.Bytes(), "", nil)
	}
}

// combBranchSrc assigns four variables on both sides of a branch in a
// combinational process, so elaboration joins four pairs of branch values.
const combBranchSrc = `
module comb(input clk, input c, input [3:0] a, input [3:0] b);
  reg [3:0] x;
  reg [3:0] y;
  reg [3:0] z;
  reg [3:0] w;
  always @(*) begin
    if (c) begin x = a; y = b; z = a + b; w = a & b; end
    else begin x = b; y = a; z = a - b; w = a | b; end
  end
  reg [3:0] acc;
  always @(posedge clk) acc <= x + y + z + w;
  assert(acc != 4'd13, "p");
endmodule`

// readsKeyAlike parses src eight times and requires one raw key, one key
// compiled under passes "none" and one compiled by the default pipeline.
func readsKeyAlike(t *testing.T, name, format string, src []byte, top string, params map[string]uint64) {
	t.Helper()
	var first [3]string
	for i := 0; i < 8; i++ {
		n, err := ParseNetlist(format, src, top, params)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		keys := [3]string{NetlistKey(n, []int{0})}
		for j, spec := range []string{pass.SpecNone, ""} {
			cp, err := pass.Compile(n, []int{0}, pass.Options{Spec: spec})
			if err != nil {
				t.Fatal(err)
			}
			keys[j+1] = NetlistKey(cp.N, cp.Props)
		}
		if i == 0 {
			first = keys
		} else if keys != first {
			t.Fatalf("%s read %d: raw, none, default keys %.12s %.12s %.12s; first read %.12s %.12s %.12s",
				name, i, keys[0], keys[1], keys[2], first[0], first[1], first[2])
		}
	}
}

// A byte-identical BTOR2 resubmission with the compile pipeline off must
// be answered from the cache like any other.
func TestBTOR2NoPassesResubmissionHits(t *testing.T) {
	_, c := testServer(t)
	req := Request{
		Format: "btor2",
		Source: string(lookupBTOR2(t)),
		Prop:   0,
		Spec:   spec.Spec{Engine: spec.EngineBMC2, Depth: 3, Passes: "none"},
	}
	first := submitWait(t, c, req)
	second := submitWait(t, c, req)
	if first.Cached || !second.Cached || second.Verdict.Kind != first.Verdict.Kind {
		t.Fatalf("resubmission: first cached=%v %+v, second cached=%v %+v",
			first.Cached, first.Verdict, second.Cached, second.Verdict)
	}
}
