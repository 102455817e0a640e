// The wedge: a zero-initialized ROM (no write port) whose read address
// comes from the TOP bits of a free-running counter, with the property
// that the registered read data stays zero. The counter keeps the
// recurrence diameter at 2^12, far past any bounded run, so the forward
// termination check never closes, and fully arbitrary initial memory
// contents (§4.2) would keep the induction step SAT at every depth too.
// BMC-3 keeps the declared contents of a memory nobody writes, so its
// induction step closes at depth 1 (the read is registered). CI requires
// PROOF here.
module wedge(input clk);
  (* init = "zero" *) reg [3:0] rom [15:0];
  reg [11:0] cnt;
  always @(posedge clk) cnt <= cnt + 12'd1;
  reg [3:0] r;
  always @(posedge clk) r <= rom[cnt[11:8]];
  assert(r == 4'd0, "rom_reads_zero");
endmodule
