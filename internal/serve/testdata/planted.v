// A planted bug in the growth shape: an arbitrary-initialized 256x8
// memory with one write port and two read ports on one address bus,
// except that at cycle 12 read port 1 reads a ^ 8'h5a instead of a. Two
// addresses of an arbitrary-initialized memory can hold different words,
// so the reads first disagree at depth 12 exactly. The cycle counter is a
// reset register, so it folds to a constant at every frame of the
// initialized window: read 1's address is then read 0's at every frame
// but 12, and the EMM generator shares those twelve reads. The CI planted
// bug smoke pins the CE depth and the shared-read count.
module planted(input clk, input [7:0] a, input [7:0] wd, input we);
  reg [7:0] mem [255:0];
  always @(posedge clk) if (we) mem[a] <= wd;
  reg [6:0] cnt;
  always @(posedge clk) cnt <= cnt + 7'd1;
  wire [7:0] a1 = (cnt == 12) ? (a ^ 8'h5a) : a;
  wire [7:0] rd0 = mem[a];
  wire [7:0] rd1 = mem[a1];
  assert(rd1 == rd0, "planted_reads_agree");
endmodule
