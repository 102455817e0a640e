// The planted-bug shape (planted.v) plus a datapath that no property can
// observe: a 16-stage chain of 16-bit multiply-add registers, s1..s16,
// closed into a loop through s0. The property reads the chain only
// through hot, which is gated by armed, a register that resets to 0 and
// can only stay 0. The constant sweep proves armed constant, folds hot to
// false and stops there, so `-passes coi,sweep` keeps no gate of the
// chain. The CI compile smoke pins that compile line.
module gated(input clk, input [7:0] a, input [7:0] wd, input we, input arm);
  reg [7:0] mem [255:0];
  always @(posedge clk) if (we) mem[a] <= wd;
  reg [6:0] cnt;
  always @(posedge clk) cnt <= cnt + 7'd1;
  wire [7:0] a1 = (cnt == 12) ? (a ^ 8'h5a) : a;
  wire [7:0] rd0 = mem[a];
  wire [7:0] rd1 = mem[a1];
  reg [15:0] s0 = 16'd1609;
  reg [15:0] s1;
  always @(posedge clk) s1 <= s0 * s0 + 16'd61548;
  reg [15:0] s2;
  always @(posedge clk) s2 <= s1 * s1 + 16'd14732;
  reg [15:0] s3;
  always @(posedge clk) s3 <= s2 * s2 + 16'd51489;
  reg [15:0] s4;
  always @(posedge clk) s4 <= s3 * s3 + 16'd18462;
  reg [15:0] s5;
  always @(posedge clk) s5 <= s4 * s4 + 16'd5671;
  reg [15:0] s6;
  always @(posedge clk) s6 <= s5 * s5 + 16'd18178;
  reg [15:0] s7;
  always @(posedge clk) s7 <= s6 * s6 + 16'd14738;
  reg [15:0] s8;
  always @(posedge clk) s8 <= s7 * s7 + 16'd30382;
  reg [15:0] s9;
  always @(posedge clk) s9 <= s8 * s8 + 16'd18296;
  reg [15:0] s10;
  always @(posedge clk) s10 <= s9 * s9 + 16'd19320;
  reg [15:0] s11;
  always @(posedge clk) s11 <= s10 * s10 + 16'd4340;
  reg [15:0] s12;
  always @(posedge clk) s12 <= s11 * s11 + 16'd7945;
  reg [15:0] s13;
  always @(posedge clk) s13 <= s12 * s12 + 16'd17901;
  reg [15:0] s14;
  always @(posedge clk) s14 <= s13 * s13 + 16'd30299;
  reg [15:0] s15;
  always @(posedge clk) s15 <= s14 * s14 + 16'd58687;
  reg [15:0] s16;
  always @(posedge clk) s16 <= s15 * s15 + 16'd54076;
  always @(posedge clk) s0 <= s0 ^ s16;
  reg armed;
  always @(posedge clk) armed <= armed & arm;
  wire hot = armed && (s16 == 16'd26860);
  assert(rd1 == rd0 && !hot, "gated_reads_agree");
endmodule
