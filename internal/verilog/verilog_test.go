package verilog

import (
	"math/rand"
	"strings"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/bmc"
	"emmver/internal/sim"
)

// harness wraps an elaborated netlist with name-based input driving.
type harness struct {
	t   *testing.T
	n   *aig.Netlist
	s   *sim.Simulator
	in  map[string][]aig.NodeID // input name -> bit nodes (LSB first)
	cur map[aig.NodeID]bool
}

func newHarness(t *testing.T, src, top string) *harness {
	t.Helper()
	n, err := ElaborateString(src, top)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	h := &harness{t: t, n: n, s: sim.New(n), in: map[string][]aig.NodeID{}, cur: map[aig.NodeID]bool{}}
	for _, id := range n.Inputs {
		name := n.InputName(id)
		base := name
		if i := strings.IndexByte(name, '['); i >= 0 {
			base = name[:i]
		}
		h.in[base] = append(h.in[base], id)
	}
	return h
}

func (h *harness) set(name string, val uint64) {
	ids, ok := h.in[name]
	if !ok {
		h.t.Fatalf("no input %q (have %v)", name, h.in)
	}
	for i, id := range ids {
		h.cur[id] = val>>uint(i)&1 == 1
	}
}

func (h *harness) step() sim.StepResult { return h.s.Step(h.cur) }

// latch reads a register value by its base name.
func (h *harness) latch(name string) uint64 {
	var bits []aig.Lit
	for _, l := range h.n.Latches {
		base := l.Name
		if i := strings.IndexByte(base, '['); i >= 0 {
			base = base[:i]
		}
		if base == name {
			bits = append(bits, aig.MkLit(l.Node, false))
		}
	}
	if len(bits) == 0 {
		h.t.Fatalf("no latch %q", name)
	}
	h.s.Begin(h.cur)
	return h.s.EvalVec(bits)
}

func TestCounterModule(t *testing.T) {
	src := `
module counter(input clk, input en, input rst);
  reg [3:0] cnt;
  always @(posedge clk) begin
    if (rst) cnt <= 4'd0;
    else if (en) cnt <= cnt + 4'd1;
  end
  assert(cnt != 4'd9, "never9");
endmodule`
	h := newHarness(t, src, "counter")
	h.set("en", 1)
	h.set("rst", 0)
	for i := 1; i <= 5; i++ {
		h.step()
		if got := h.latch("cnt"); got != uint64(i) {
			t.Fatalf("cycle %d: cnt=%d", i, got)
		}
	}
	h.set("rst", 1)
	h.step()
	if got := h.latch("cnt"); got != 0 {
		t.Fatalf("reset failed: %d", got)
	}
	// The assertion must be falsifiable at depth 9.
	n, _ := ElaborateString(src, "counter")
	r := bmc.Check(n, 0, bmc.Options{MaxDepth: 12, ValidateWitness: true})
	if r.Kind != bmc.KindCE || r.Depth != 9 {
		t.Fatalf("assert verdict wrong: %v", r)
	}
}

func TestOperatorsAgainstGo(t *testing.T) {
	checks := []struct {
		expr string
		fn   func(a, b uint64) uint64
	}{
		{"a + b", func(a, b uint64) uint64 { return (a + b) & 0xff }},
		{"a - b", func(a, b uint64) uint64 { return (a - b) & 0xff }},
		{"a & b", func(a, b uint64) uint64 { return a & b }},
		{"a | b", func(a, b uint64) uint64 { return a | b }},
		{"a ^ b", func(a, b uint64) uint64 { return a ^ b }},
		{"~a", func(a, b uint64) uint64 { return ^a & 0xff }},
		{"a * b", func(a, b uint64) uint64 { return (a * b) & 0xff }},
		{"{8{a < b}}", func(a, b uint64) uint64 {
			if a < b {
				return 0xff
			}
			return 0
		}},
		{"{8{a >= b}}", func(a, b uint64) uint64 {
			if a >= b {
				return 0xff
			}
			return 0
		}},
		{"a << 2", func(a, b uint64) uint64 { return a << 2 & 0xff }},
		{"a >> (b & 8'd7)", func(a, b uint64) uint64 { return a >> (b & 7) }},
		{"(a < b) ? a : b", func(a, b uint64) uint64 {
			if a < b {
				return a
			}
			return b
		}},
		{"{8{^a}}", func(a, b uint64) uint64 {
			x := a ^ a>>4
			x ^= x >> 2
			x ^= x >> 1
			if x&1 == 1 {
				return 0xff
			}
			return 0
		}},
		{"{a[3:0], b[7:4]}", func(a, b uint64) uint64 { return a&0xf<<4 | b>>4&0xf }},
	}
	rng := rand.New(rand.NewSource(8))
	for _, c := range checks {
		src := `
module t(input [7:0] a, input [7:0] b, input [7:0] expect);
  wire [7:0] val = ` + c.expr + `;
  wire ok = val == expect;
  reg seen;
  always @(posedge a) seen <= ok;
endmodule`
		h := newHarness(t, src, "t")
		for i := 0; i < 50; i++ {
			av, bv := rng.Uint64()&0xff, rng.Uint64()&0xff
			h.set("a", av)
			h.set("b", bv)
			h.set("expect", c.fn(av, bv))
			h.step()
			if h.latch("seen") != 1 {
				t.Fatalf("%s wrong for a=%d b=%d (want %d)", c.expr, av, bv, c.fn(av, bv))
			}
		}
	}
}

func TestCombAlwaysWithCase(t *testing.T) {
	src := `
module alu(input clk, input [1:0] op, input [3:0] a, input [3:0] b);
  reg [3:0] y;
  always @(*) begin
    case (op)
      2'd0: y = a + b;
      2'd1: y = a - b;
      2'd2: y = a & b;
      default: y = a ^ b;
    endcase
  end
  reg [3:0] out;
  always @(posedge clk) out <= y;
endmodule`
	h := newHarness(t, src, "alu")
	cases := []func(a, b uint64) uint64{
		func(a, b uint64) uint64 { return (a + b) & 0xf },
		func(a, b uint64) uint64 { return (a - b) & 0xf },
		func(a, b uint64) uint64 { return a & b },
		func(a, b uint64) uint64 { return a ^ b },
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 80; i++ {
		op := uint64(rng.Intn(4))
		av, bv := rng.Uint64()&0xf, rng.Uint64()&0xf
		h.set("op", op)
		h.set("a", av)
		h.set("b", bv)
		h.step()
		if got := h.latch("out"); got != cases[op](av, bv) {
			t.Fatalf("op=%d a=%d b=%d: out=%d want %d", op, av, bv, got, cases[op](av, bv))
		}
	}
}

func TestMemoryInference(t *testing.T) {
	src := `
module ram(input clk, input we, input [2:0] wa, input [7:0] wd, input [2:0] ra);
  (* init = "zero" *) reg [7:0] mem [7:0];
  always @(posedge clk) begin
    if (we) mem[wa] <= wd;
  end
  reg [7:0] rd;
  always @(posedge clk) rd <= mem[ra];
endmodule`
	n, err := ElaborateString(src, "ram")
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Memories) != 1 {
		t.Fatalf("memory not inferred")
	}
	mem := n.Memories[0]
	if mem.AW != 3 || mem.DW != 8 || mem.Init != aig.MemZero {
		t.Fatalf("memory geometry wrong: AW=%d DW=%d init=%v", mem.AW, mem.DW, mem.Init)
	}
	if len(mem.Writes) != 1 || len(mem.Reads) != 1 {
		t.Fatalf("ports wrong")
	}
	h := newHarness(t, src, "ram")
	h.set("we", 1)
	h.set("wa", 5)
	h.set("wd", 0xAB)
	h.set("ra", 5)
	h.step() // write committed
	h.set("we", 0)
	h.step() // rd loads mem[5]
	if got := h.latch("rd"); got != 0xAB {
		t.Fatalf("rd=%#x want 0xAB", got)
	}
}

func TestParametersAndInstance(t *testing.T) {
	src := `
module addsub #(parameter W = 4, parameter SUB = 0) (input [W-1:0] a, input [W-1:0] b, output [W-1:0] y);
  assign y = SUB ? a - b : a + b;
endmodule

module top(input clk, input [7:0] a, input [7:0] b);
  wire [7:0] s;
  wire [7:0] d;
  addsub #(.W(8)) u_add (.a(a), .b(b), .y(s));
  addsub #(.W(8), .SUB(1)) u_sub (.a(a), .b(b), .y(d));
  reg [7:0] sum, dif;
  always @(posedge clk) begin
    sum <= s;
    dif <= d;
  end
endmodule`
	h := newHarness(t, src, "top")
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 40; i++ {
		av, bv := rng.Uint64()&0xff, rng.Uint64()&0xff
		h.set("a", av)
		h.set("b", bv)
		h.step()
		if got := h.latch("sum"); got != (av+bv)&0xff {
			t.Fatalf("sum wrong")
		}
		if got := h.latch("dif"); got != (av-bv)&0xff {
			t.Fatalf("dif wrong")
		}
	}
}

func TestAssumeConstrainsBMC(t *testing.T) {
	src := `
module c(input clk, input x);
  reg r;
  always @(posedge clk) if (x) r <= 1'b1;
  assume(!x);
  assert(!r, "stays0");
endmodule`
	n, err := ElaborateString(src, "c")
	if err != nil {
		t.Fatal(err)
	}
	r := bmc.Check(n, 0, bmc.Options{Engine: bmc.EngineBMC1, MaxDepth: 10})
	if r.Kind != bmc.KindProof {
		t.Fatalf("assumed design must be provable: %v", r)
	}
}

func TestPartAndBitAssign(t *testing.T) {
	src := `
module p(input clk, input [3:0] nib, input [1:0] idx, input bitv);
  reg [7:0] r;
  always @(posedge clk) begin
    r[7:4] <= nib;
    r[idx] <= bitv;
  end
endmodule`
	h := newHarness(t, src, "p")
	h.set("nib", 0xA)
	h.set("idx", 2)
	h.set("bitv", 1)
	h.step()
	if got := h.latch("r"); got != 0xA4 {
		t.Fatalf("r=%#x want 0xA4", got)
	}
}

func TestElaborationErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"multidriver", `module m(input a); wire w; assign w = a; assign w = !a; endmodule`},
		{"undriven", `module m(input clk); wire w; reg r; always @(posedge clk) r <= w; endmodule`},
		{"comb-incomplete", `module m(input clk, input c, input x); reg y; always @(*) begin if (c) y = x; end reg o; always @(posedge clk) o <= y; endmodule`},
		{"comb-loop", `module m(input clk, input a); wire x; wire y; assign x = y; assign y = x & a; reg r; always @(posedge clk) r <= x; endmodule`},
		{"blocking-in-ff", `module m(input clk); reg r; always @(posedge clk) r = 1'b1; endmodule`},
		{"unknown-module", `module m(input a); foo u(.x(a)); endmodule`},
		{"unknown-top", `module m(input a); endmodule`},
		{"assign-to-reg", `module m(input a); reg r; assign r = a; endmodule`},
		{"mem-no-index", `module m(input clk, input [1:0] x); reg [3:0] mem [3:0]; reg [3:0] r; always @(posedge clk) r <= mem + 1; endmodule`},
		{"double-clocked", `module m(input clk); reg r; always @(posedge clk) r <= 1'b0; always @(posedge clk) r <= 1'b1; endmodule`},
	}
	for _, c := range cases {
		top := "m"
		if c.name == "unknown-top" {
			top = "nonexistent"
		}
		if _, err := ElaborateString(c.src, top); err == nil {
			t.Fatalf("%s: expected elaboration error", c.name)
		}
	}
}

func TestParseErrorsVerilog(t *testing.T) {
	for _, bad := range []string{
		``,
		`module`,
		`module m(input a);`,
		`module m(input a); wire w = ; endmodule`,
		`module m(input a); always @(negedge a) ; endmodule`,
		`module m(input a); assign w 3; endmodule`,
		`module m(input [4'bzz01:0] a); endmodule`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("source %q must fail to parse", bad)
		}
	}
}

func TestNumberFormats(t *testing.T) {
	src := `
module n(input clk);
  reg [15:0] r;
  always @(posedge clk) r <= 16'hBEEF;
  reg [7:0] b;
  always @(posedge clk) b <= 8'b1010_0101;
  reg [7:0] d;
  always @(posedge clk) d <= 'd42;
  reg [7:0] o;
  always @(posedge clk) o <= 8'o17;
endmodule`
	h := newHarness(t, src, "n")
	h.step()
	if h.latch("r") != 0xBEEF || h.latch("b") != 0xA5 || h.latch("d") != 42 || h.latch("o") != 15 {
		t.Fatalf("literals wrong: %x %x %d %d", h.latch("r"), h.latch("b"), h.latch("d"), h.latch("o"))
	}
}

func TestRegInitializer(t *testing.T) {
	src := `
module i(input clk);
  reg [3:0] r = 4'd9;
  always @(posedge clk) r <= r;
  (* init = "arbitrary" *) reg [3:0] x;
  always @(posedge clk) x <= x;
endmodule`
	n, err := ElaborateString(src, "i")
	if err != nil {
		t.Fatal(err)
	}
	inits := map[string]aig.Init{}
	for _, l := range n.Latches {
		base := l.Name
		if j := strings.IndexByte(base, '['); j >= 0 {
			base = base[:j]
		}
		inits[base+l.Name[strings.IndexByte(l.Name, '['):]] = l.Init
	}
	h := newHarness(t, src, "i")
	if h.latch("r") != 9 {
		t.Fatalf("initializer lost: %d", h.latch("r"))
	}
	sawX := false
	for _, l := range n.Latches {
		if strings.HasPrefix(l.Name, "x[") && l.Init == aig.InitX {
			sawX = true
		}
	}
	if !sawX {
		t.Fatalf("arbitrary attribute ignored")
	}
}

func TestNonAnsiPorts(t *testing.T) {
	src := `
module old(clk, a, y);
  input clk;
  input [3:0] a;
  output [3:0] y;
  assign y = a + 4'd1;
  reg [3:0] r;
  always @(posedge clk) r <= y;
endmodule`
	h := newHarness(t, src, "old")
	h.set("a", 6)
	h.step()
	if h.latch("r") != 7 {
		t.Fatalf("non-ANSI ports wrong: %d", h.latch("r"))
	}
}

func TestCaseWithMultipleLabels(t *testing.T) {
	src := `
module ml(input clk, input [2:0] x);
  reg hit;
  always @(posedge clk) begin
    case (x)
      3'd1, 3'd3, 3'd5, 3'd7: hit <= 1'b1;
      default: hit <= 1'b0;
    endcase
  end
endmodule`
	h := newHarness(t, src, "ml")
	for v := uint64(0); v < 8; v++ {
		h.set("x", v)
		h.step()
		want := uint64(0)
		if v%2 == 1 {
			want = 1
		}
		if got := h.latch("hit"); got != want {
			t.Fatalf("x=%d: hit=%d want %d", v, got, want)
		}
	}
}

func TestCasePriorityFirstArmWins(t *testing.T) {
	// Overlapping labels: the first matching arm must win.
	src := `
module pr(input clk, input [1:0] x);
  reg [1:0] y;
  always @(posedge clk) begin
    case (x)
      2'd1: y <= 2'd1;
      2'd1: y <= 2'd2;  // dead arm
      default: y <= 2'd3;
    endcase
  end
endmodule`
	h := newHarness(t, src, "pr")
	h.set("x", 1)
	h.step()
	if got := h.latch("y"); got != 1 {
		t.Fatalf("first arm must win: got %d", got)
	}
}

func TestUnconnectedChildInputBecomesFree(t *testing.T) {
	src := `
module child(input [3:0] a, output [3:0] y);
  assign y = a;
endmodule
module top(input clk);
  wire [3:0] w;
  child u(.y(w));
  reg [3:0] r;
  always @(posedge clk) r <= w;
endmodule`
	n, err := ElaborateString(src, "top")
	if err != nil {
		t.Fatal(err)
	}
	// The dangling child input becomes 4 free primary inputs (plus clk).
	if got := len(n.Inputs); got != 5 {
		t.Fatalf("inputs=%d want 5", got)
	}
}

func TestReductionAndRepeatWithParams(t *testing.T) {
	src := `
module rp #(parameter W = 5) (input clk, input [W-1:0] a);
  wire allones = &a;
  wire [W-1:0] splat = {W{allones}};
  reg [W-1:0] r;
  always @(posedge clk) r <= splat;
endmodule`
	h := newHarness(t, src, "rp")
	h.set("a", 31)
	h.step()
	if got := h.latch("r"); got != 31 {
		t.Fatalf("splat wrong: %d", got)
	}
	h.set("a", 30)
	h.step()
	if got := h.latch("r"); got != 0 {
		t.Fatalf("splat of 0 wrong: %d", got)
	}
}

func TestLocalparamAndParamOverride(t *testing.T) {
	src := `
module lp #(parameter N = 2) (input clk);
  localparam DOUBLE = N * 2;
  reg [7:0] r;
  always @(posedge clk) r <= DOUBLE;
endmodule`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ElaborateWithParams(f, "lp", map[string]uint64{"N": 5})
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(n)
	s.Step(nil)
	s.Begin(nil)
	var bits []aig.Lit
	for _, l := range n.Latches {
		bits = append(bits, aig.MkLit(l.Node, false))
	}
	if got := s.EvalVec(bits); got != 10 {
		t.Fatalf("localparam with override wrong: %d", got)
	}
}

func TestDeepHierarchy(t *testing.T) {
	src := `
module leaf(input [3:0] a, output [3:0] y);
  assign y = a + 4'd1;
endmodule
module mid(input [3:0] a, output [3:0] y);
  wire [3:0] t;
  leaf u1(.a(a), .y(t));
  leaf u2(.a(t), .y(y));
endmodule
module top(input clk, input [3:0] a);
  wire [3:0] y;
  mid m(.a(a), .y(y));
  reg [3:0] r;
  always @(posedge clk) r <= y;
endmodule`
	h := newHarness(t, src, "top")
	h.set("a", 5)
	h.step()
	if got := h.latch("r"); got != 7 {
		t.Fatalf("hierarchy result %d want 7", got)
	}
}

func TestRecursiveInstantiationRejected(t *testing.T) {
	src := `
module loop(input a);
  loop u(.a(a));
endmodule`
	if _, err := ElaborateString(src, "loop"); err == nil {
		t.Fatalf("recursive instantiation must be rejected")
	}
}

func TestDivModConstantOnly(t *testing.T) {
	src := `
module dm(input clk);
  localparam Q = 17 / 5;
  localparam R = 17 % 5;
  reg [7:0] q, r;
  always @(posedge clk) begin
    q <= Q;
    r <= R;
  end
endmodule`
	h := newHarness(t, src, "dm")
	h.step()
	if h.latch("q") != 3 || h.latch("r") != 2 {
		t.Fatalf("const div/mod wrong: %d %d", h.latch("q"), h.latch("r"))
	}
	// Non-constant division must be rejected.
	bad := `
module dm2(input clk, input [3:0] a, input [3:0] b);
  reg [3:0] r;
  always @(posedge clk) r <= a / b;
endmodule`
	if _, err := ElaborateString(bad, "dm2"); err == nil {
		t.Fatalf("non-constant division must be rejected")
	}
}

func TestVariableBitSelectRead(t *testing.T) {
	src := `
module vb(input clk, input [7:0] data, input [2:0] idx);
  reg bitr;
  always @(posedge clk) bitr <= data[idx];
endmodule`
	h := newHarness(t, src, "vb")
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 50; i++ {
		dv := rng.Uint64() & 0xff
		iv := rng.Uint64() & 7
		h.set("data", dv)
		h.set("idx", iv)
		h.step()
		if got := h.latch("bitr"); got != dv>>iv&1 {
			t.Fatalf("data[%d] of %#x: got %d", iv, dv, got)
		}
	}
}

func TestMultipleMemoriesInOneModule(t *testing.T) {
	src := `
module mm(input clk, input we, input [1:0] a, input [3:0] d);
  (* init = "zero" *) reg [3:0] m1 [3:0];
  (* init = "zero" *) reg [3:0] m2 [3:0];
  always @(posedge clk) begin
    if (we) begin
      m1[a] <= d;
      m2[a] <= ~d;
    end
  end
  reg [3:0] r1, r2;
  always @(posedge clk) begin
    r1 <= m1[a];
    r2 <= m2[a];
  end
endmodule`
	n, err := ElaborateString(src, "mm")
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Memories) != 2 {
		t.Fatalf("expected 2 memories, got %d", len(n.Memories))
	}
	h := newHarness(t, src, "mm")
	h.set("we", 1)
	h.set("a", 2)
	h.set("d", 5)
	h.step() // write
	h.step() // read back
	if h.latch("r1") != 5 || h.latch("r2") != 10 {
		t.Fatalf("dual-memory readback wrong: %d %d", h.latch("r1"), h.latch("r2"))
	}
}
