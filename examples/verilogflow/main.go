// Verilogflow compiles a small Verilog design with an embedded memory, hunts
// for a protocol bug with EMM-based BMC, writes the counter-example as a
// VCD waveform, and proves the fixed version — the full HDL-to-verdict
// pipeline.
package main

import (
	"fmt"
	"os"

	"emmver"
	"emmver/internal/vcd"
)

const buggy = `
// A FIFO with a one-slot skid buffer: pop data comes from the memory.
// The bug: the full check allows count == DEPTH+1.
module fifo(input clk, input push, input pop, input [7:0] din);
  parameter DEPTH = 4;   // power of two
  parameter AW = 2;

  (* init = "zero" *) reg [7:0] mem [DEPTH-1:0];
  reg [AW-1:0] wp;
  reg [AW-1:0] rp;
  reg [AW:0]   count;

  wire can_push = count <= DEPTH;     // BUG: should be count < DEPTH
  wire can_pop  = count != 0;
  wire do_push = push && can_push;
  wire do_pop  = pop && can_pop;

  always @(posedge clk) begin
    if (do_push) begin
      mem[wp] <= din;
      wp <= wp + 1'b1;
    end
    if (do_pop) rp <= rp + 1'b1;
    count <= count + (do_push ? 1'b1 : 1'b0) - (do_pop ? 1'b1 : 1'b0);
  end

  assert(count <= DEPTH, "never-overfull");
endmodule`

func main() {
	n, err := emmver.CompileVerilog(buggy, "fifo")
	if err != nil {
		panic(err)
	}
	fmt.Printf("fifo: %s\n", n.Stats())

	opt := emmver.Options{Engine: emmver.EngineBMC2, MaxDepth: 20}
	opt.ValidateWitness = true
	res := emmver.Verify(n, 0, opt)
	fmt.Println("buggy fifo:", res)
	if res.Kind == emmver.CounterExample {
		f, err := os.Create("fifo_bug.vcd")
		if err != nil {
			panic(err)
		}
		if err := vcd.DumpWitness(f, n, res.Witness, 0); err != nil {
			panic(err)
		}
		f.Close()
		fmt.Println("waveform written to fifo_bug.vcd")
	}

	fixed, err := emmver.CompileVerilog(
		replace(buggy, "count <= DEPTH;     // BUG: should be count < DEPTH",
			"count < DEPTH;"), "fifo")
	if err != nil {
		panic(err)
	}
	res2 := emmver.Verify(fixed, 0, emmver.Options{Engine: emmver.EngineBMC3, MaxDepth: 30})
	fmt.Println("fixed fifo:", res2)
}

func replace(s, old, new string) string {
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + new + s[i+len(old):]
		}
	}
	panic("pattern not found")
}
