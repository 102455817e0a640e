package emmver

import (
	"testing"
	"time"
)

func TestFacadeQuickstart(t *testing.T) {
	d := NewDesign("demo")
	mem := d.Memory("ram", 4, 8, MemZero)
	addr := d.Input("addr", 4)
	data := mem.Read(addr, True)
	d.AssertAlways("read-zero", d.IsZero(data))
	res := Verify(d.N, 0, Options{Engine: EngineBMC3, MaxDepth: 20})
	if res.Kind != Proved {
		t.Fatalf("unwritten zero memory must read zero: %v", res)
	}
}

func TestFacadeCounterExampleAndReplay(t *testing.T) {
	d := NewDesign("demo")
	mem := d.Memory("ram", 3, 4, MemZero)
	mem.Write(d.Input("wa", 3), d.Input("wd", 4), d.InputBit("we"))
	rd := mem.Read(d.Input("ra", 3), True)
	d.AssertAlways("never-7", d.EqConst(rd, 7).Not())
	opt := Options{Engine: EngineBMC2, MaxDepth: 10}
	opt.ValidateWitness = true
	res := Verify(d.N, 0, opt)
	if res.Kind != CounterExample {
		t.Fatalf("expected counter-example, got %v", res)
	}
	if err := res.Witness.Replay(d.N, 0); err != nil {
		t.Fatalf("witness replay failed: %v", err)
	}
}

func TestFacadeVerifyAll(t *testing.T) {
	d := NewDesign("demo")
	c := d.Register("c", 3, 0)
	c.SetNext(d.Inc(c.Q))
	d.Done(c)
	d.AssertAlways("ne2", d.EqConst(c.Q, 2).Not())
	d.AssertAlways("tauto", True)
	opt := Options{Engine: EngineBMC1, MaxDepth: 10}
	res := VerifyAll(d.N, []int{0, 1}, opt)
	if res.Results[0].Kind != CounterExample || res.Results[1].Kind != Proved {
		t.Fatalf("unexpected outcomes: %v %v", res.Results[0], res.Results[1])
	}
}

func TestFacadeExpandAndSimulate(t *testing.T) {
	d := NewDesign("demo")
	mem := d.Memory("ram", 2, 4, MemZero)
	mem.Read(d.Input("ra", 2), True)
	exp, err := ExpandMemories(d.N)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Memories) != 0 {
		t.Fatalf("expansion left memories behind")
	}
	s := NewSimulator(d.N)
	s.Step(nil)
	if s.Cycle() != 1 {
		t.Fatalf("simulator did not step")
	}
}

func TestFacadeProveWithAbstraction(t *testing.T) {
	d := NewDesign("demo")
	c := d.Register("c", 3, 0)
	wrap := d.EqConst(c.Q, 4)
	c.SetNext(d.MuxV(wrap, d.Const(3, 0), d.Inc(c.Q)))
	junk := d.Register("junk", 8, 0)
	junk.SetNext(d.Inc(junk.Q))
	d.Done(c, junk)
	d.AssertAlways("ne6", d.EqConst(c.Q, 6).Not())
	opt := Options{MaxDepth: 40, StabilityDepth: 5, Timeout: 30 * time.Second}
	res := ProveWithAbstraction(d.N, 0, opt)
	if res.Kind() != Proved {
		t.Fatalf("expected proof, got %v", res.Kind())
	}
	if res.Abs == nil || len(res.Abs.FreeLatches) == 0 {
		t.Fatalf("expected latch reduction")
	}
}

func TestFacadeVerilog(t *testing.T) {
	src := `
module toggler(input clk, input en);
  reg t;
  always @(posedge clk) if (en) t <= !t;
  assert(!t || t, "tauto");
endmodule`
	n, err := CompileVerilog(src, "toggler")
	if err != nil {
		t.Fatal(err)
	}
	if Verify(n, 0, Options{Engine: EngineBMC1, MaxDepth: 5}).Kind != Proved {
		t.Fatalf("tautology must be proved")
	}
}
