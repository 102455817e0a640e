package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// The generators below write source text only. Each one knows the verdict
// of what it writes by construction, so the benchmark checks the engine
// against the generator and never against the engine itself.

// Known answers, in the verdict spelling the engine uses.
const (
	answerProof = "PROOF"
	answerNoCE  = "NO_CE"
	answerCE    = "CE"
)

// btorWriter emits BTOR2 text with sequential node ids, declaring each sort
// on first use.
type btorWriter struct {
	buf   strings.Builder
	id    int64
	sorts map[[2]int]int64 // {index width, element width}; index 0 = bitvec
}

func newBtor() *btorWriter { return &btorWriter{sorts: map[[2]int]int64{}} }

func (w *btorWriter) emit(format string, args ...any) int64 {
	w.id++
	fmt.Fprintf(&w.buf, "%d ", w.id)
	fmt.Fprintf(&w.buf, format, args...)
	w.buf.WriteByte('\n')
	return w.id
}

func (w *btorWriter) bv(width int) int64 {
	k := [2]int{0, width}
	if s, ok := w.sorts[k]; ok {
		return s
	}
	s := w.emit("sort bitvec %d", width)
	w.sorts[k] = s
	return s
}

func (w *btorWriter) array(aw, dw int) int64 {
	k := [2]int{aw, dw}
	if s, ok := w.sorts[k]; ok {
		return s
	}
	idx, elem := w.bv(aw), w.bv(dw)
	s := w.emit("sort array %d %d", idx, elem)
	w.sorts[k] = s
	return s
}

// op emits "<id> <name> <sort of width> <args...>".
func (w *btorWriter) op(name string, width int, args ...int64) int64 {
	s := w.bv(width)
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = fmt.Sprint(a)
	}
	return w.emit("%s %d %s", name, s, strings.Join(parts, " "))
}

func (w *btorWriter) constant(width int, v uint64) int64 {
	return w.emit("constd %d %d", w.bv(width), v)
}

func (w *btorWriter) input(width int, name string) int64 {
	return w.emit("input %d %s", w.bv(width), name)
}

// reg declares a bit-vector state with a constant initial value.
func (w *btorWriter) reg(width int, name string, init uint64) int64 {
	st := w.emit("state %d %s", w.bv(width), name)
	c := w.constant(width, init)
	w.emit("init %d %d %d", w.bv(width), st, c)
	return st
}

// mem declares an array state with arbitrary initial contents.
func (w *btorWriter) mem(aw, dw int, name string) int64 {
	return w.emit("state %d %s", w.array(aw, dw), name)
}

func (w *btorWriter) next(width int, st, val int64) {
	w.emit("next %d %d %d", w.bv(width), st, val)
}

func (w *btorWriter) nextMem(aw, dw int, st, val int64) {
	w.emit("next %d %d %d", w.array(aw, dw), st, val)
}

func (w *btorWriter) slice(a int64, hi, lo int) int64 {
	return w.emit("slice %d %d %d %d", w.bv(hi-lo+1), a, hi, lo)
}

func (w *btorWriter) read(dw int, arr, addr int64) int64 {
	return w.emit("read %d %d %d", w.bv(dw), arr, addr)
}

func (w *btorWriter) write(aw, dw int, arr, addr, val int64) int64 {
	return w.emit("write %d %d %d %d", w.array(aw, dw), arr, addr, val)
}

func (w *btorWriter) ite(width int, c, t, e int64) int64 { return w.op("ite", width, c, t, e) }

func (w *btorWriter) iteMem(aw, dw int, c, t, e int64) int64 {
	return w.emit("ite %d %d %d %d", w.array(aw, dw), c, t, e)
}

func (w *btorWriter) eqConst(width int, a int64, v uint64) int64 {
	return w.op("eq", 1, a, w.constant(width, v))
}

func (w *btorWriter) bad(cond int64, name string) { w.emit("bad %d %s", cond, name) }

func (w *btorWriter) String() string { return w.buf.String() }

// namer hands out seed-salted signal names, so two generated variants of
// one design differ in every symbol.
type namer struct {
	rng  *rand.Rand
	used map[string]bool
}

func newNamer(rng *rand.Rand) *namer { return &namer{rng: rng, used: map[string]bool{}} }

func (n *namer) name(base string) string {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	for {
		b := make([]byte, 5)
		for i := range b {
			b[i] = letters[n.rng.Intn(len(letters))]
		}
		s := base + "_" + string(b)
		if !n.used[s] {
			n.used[s] = true
			return s
		}
	}
}

// regSpec is one register of a generated design.
type regSpec struct {
	role  string
	width int
	init  uint64
}

// declareRegs emits the registers in the given order and returns their
// node ids by role.
func declareRegs(w *btorWriter, nm *namer, order []int, regs []regSpec) map[string]int64 {
	ids := make(map[string]int64, len(regs))
	for _, i := range order {
		r := regs[i]
		ids[r.role] = w.reg(r.width, nm.name(r.role), r.init)
	}
	return ids
}

// emitNexts writes the register next functions in a seed-chosen order.
func emitNexts(w *btorWriter, rng *rand.Rand, regs []regSpec, ids, next map[string]int64) {
	order := rng.Perm(len(regs))
	for _, i := range order {
		r := regs[i]
		w.next(r.width, ids[r.role], next[r.role])
	}
}

// btorDecoys adds logic outside every property's cone: a free-running
// counter, an input-fed register, and a small memory nobody observes. The
// compile pipeline's cone-of-influence pass removes all of it, so the
// verified netlist does not depend on the salt.
func btorDecoys(w *btorWriter, nm *namer, rng *rand.Rand) {
	cw := 3 + rng.Intn(4)
	cnt := w.reg(cw, nm.name("dcnt"), 0)
	w.next(cw, cnt, w.op("add", cw, cnt, w.constant(cw, 1)))

	dw := 2 + rng.Intn(5)
	in := w.input(dw, nm.name("din"))
	reg := w.reg(dw, nm.name("dreg"), 0)

	aw := 2 + rng.Intn(2)
	mem := w.mem(aw, dw, nm.name("dmem"))
	addr := w.slice(w.input(8, nm.name("daddr")), aw-1, 0)
	we := w.input(1, nm.name("dwe"))
	w.nextMem(aw, dw, mem, w.iteMem(aw, dw, we, w.write(aw, dw, mem, addr, in), mem))
	w.next(dw, reg, w.op("xor", dw, reg, w.read(dw, mem, addr)))
}

// btorBulk adds a chain of stages 16-bit multiply-add registers, closed
// into a loop, and returns the last register.
func btorBulk(w *btorWriter, nm *namer, rng *rand.Rand, stages int) int64 {
	const bw = 16
	x := w.reg(bw, nm.name("bulk"), rng.Uint64()&0xffff)
	prev := x
	for s := 0; s < stages; s++ {
		r := w.reg(bw, nm.name("bulk"), 0)
		sq := w.op("mul", bw, prev, prev)
		w.next(bw, r, w.op("add", bw, sq, w.constant(bw, rng.Uint64()&0xffff)))
		prev = r
	}
	w.next(bw, x, w.op("xor", bw, x, prev))
	return prev
}

// btorSweepFood adds a bulk chain to the cone of a property and returns a
// 1-bit signal for the caller to OR into the bad condition. The signal is
// gated by a register that starts at 0 and can only stay 0, so it is false
// in every reachable state: the property keeps its verdict, and the
// compile pipeline's constant sweep must find the constant register before
// the cone-of-influence pass can drop the bulk.
func btorSweepFood(w *btorWriter, nm *namer, rng *rand.Rand, stages int) int64 {
	last := btorBulk(w, nm, rng, stages)
	z := w.reg(1, nm.name("armed"), 0)
	w.next(1, z, w.op("and", 1, z, w.input(1, nm.name("arm"))))
	return w.op("and", 1, z, w.eqConst(16, last, rng.Uint64()&0xffff))
}

// qsortRegOrder is the order the quicksort machine declares its twelve
// registers in, with the stack memory first. Names, decoys and the order of
// next-function lines are seeded and the compile pipeline normalizes them
// away, but register and memory order survive it and steer the SAT
// search: across orders the same proof takes from 1.4 s to 3.5 s, enough
// to move a run's median with the seed alone. This order proves in the
// same conflicts under every seed tried.
var qsortRegOrder = []int{6, 4, 11, 3, 1, 10, 5, 0, 9, 7, 8, 2}

// qsortConfig parameterizes the quicksort machine of the paper's §5: an
// iterative Lomuto quicksort FSM over an arbitrary-initialized array
// memory, with an explicit recursion-stack memory.
type qsortConfig struct {
	N, AW, DW, SW int
}

// Quicksort FSM states.
const (
	qsInit uint64 = iota
	qsPCheck
	qsPInit
	qsPLoop
	qsSwapRd
	qsSwapWr
	qsFinRd
	qsFinWr
	qsRecurse
	qsPopCheck
	qsPop
	qsCheck0
	qsCheck1
	qsChecked
)

// qsortBtor writes the quicksort machine as word-level BTOR2 with two bad
// properties, both unreachable for a correct sort:
//
//	bad0 (P1): at CHECKED, arr[0] > arr[1];
//	bad1 (P2): right after a pop, control is not back at PCHECK with a
//	           well-formed range lo <= hi <= N-1.
//
// Both properties hold at every depth and the machine's reachable state
// space is finite and loop-free up to its terminal self-loop, so BMC-3
// answers PROOF for both. The rng perturbs names, decoys and the order of
// the next functions only.
func qsortBtor(rng *rand.Rand, cfg qsortConfig) string {
	w, nm := newBtor(), newNamer(rng)
	pw, dw, sw := cfg.AW, cfg.DW, cfg.SW
	regs := []regSpec{
		{"state", 4, qsInit}, {"prev", 4, qsInit},
		{"lo", pw, 0}, {"hi", pw, 0}, {"i", pw, 0}, {"j", pw, 0}, {"p", pw, 0},
		{"pivot", dw, 0}, {"tmp", dw, 0}, {"chkA", dw, 0}, {"chkB", dw, 0},
		{"sp", sw + 1, 0},
	}
	if rng.Intn(2) == 0 {
		btorDecoys(w, nm, rng)
	}
	stk := w.mem(sw, 2*pw, nm.name("stack"))
	arr := w.mem(cfg.AW, dw, nm.name("arr"))
	r := declareRegs(w, nm, qsortRegOrder, regs)
	if rng.Intn(2) == 0 {
		btorDecoys(w, nm, rng)
	}
	st := r["state"]
	in := func(s uint64) int64 { return w.eqConst(4, st, s) }
	or := func(a, b int64) int64 { return w.op("or", 1, a, b) }
	and := func(a, b int64) int64 { return w.op("and", 1, a, b) }
	not := func(a int64) int64 { return w.op("not", 1, a) }
	inc := func(x int64, width int) int64 { return w.op("add", width, x, w.constant(width, 1)) }
	dec := func(x int64, width int) int64 { return w.op("sub", width, x, w.constant(width, 1)) }
	ite := func(width int, c, t, e int64) int64 { return w.ite(width, c, t, e) }

	// Array read port, addressed by state.
	raddr := w.constant(pw, 0)
	raddr = ite(pw, in(qsPInit), r["hi"], raddr)
	raddr = ite(pw, in(qsPLoop), r["j"], raddr)
	raddr = ite(pw, in(qsSwapRd), r["i"], raddr)
	raddr = ite(pw, in(qsFinRd), r["i"], raddr)
	raddr = ite(pw, in(qsCheck1), w.constant(pw, 1), raddr)
	rd := w.read(dw, arr, raddr)

	// Array write port.
	waddr := ite(pw, in(qsSwapRd), r["j"], r["i"])
	waddr = ite(pw, in(qsFinRd), r["hi"], waddr)
	wdata := ite(dw, in(qsFinWr), r["pivot"], ite(dw, in(qsSwapWr), r["tmp"], rd))
	we := or(or(in(qsSwapRd), in(qsSwapWr)), or(in(qsFinRd), in(qsFinWr)))
	w.nextMem(cfg.AW, dw, arr, w.iteMem(cfg.AW, dw, we, w.write(cfg.AW, dw, arr, waddr, wdata), arr))

	// Stack ports: push {hi, p+1}, pop the top.
	pPlus1 := inc(r["p"], pw)
	pushData := w.op("concat", 2*pw, r["hi"], pPlus1)
	pushNow := and(in(qsRecurse), w.op("ult", 1, r["p"], r["hi"]))
	spLow := w.slice(r["sp"], sw-1, 0)
	w.nextMem(sw, 2*pw, stk, w.iteMem(sw, 2*pw, pushNow, w.write(sw, 2*pw, stk, spLow, pushData), stk))
	spMinus1 := dec(r["sp"], sw+1)
	srd := w.read(2*pw, stk, w.slice(spMinus1, sw-1, 0))
	poppedLo := w.slice(srd, pw-1, 0)
	poppedHi := w.slice(srd, 2*pw-1, pw)

	nm1 := w.constant(pw, uint64(cfg.N-1))
	c := func(v uint64) int64 { return w.constant(4, v) }
	needPart := w.op("ult", 1, r["lo"], r["hi"])
	jAtEnd := w.op("eq", 1, r["j"], r["hi"])
	small := w.op("ulte", 1, rd, r["pivot"])
	leftNonempty := w.op("ult", 1, r["lo"], r["p"])
	empty := w.eqConst(sw+1, r["sp"], 0)

	next := map[string]int64{}
	// Control: a chain of state-guarded choices; CHECKED self-loops.
	ns := st
	step := func(from uint64, to int64) { ns = ite(4, in(from), to, ns) }
	step(qsInit, c(qsPCheck))
	step(qsPCheck, ite(4, needPart, c(qsPInit), c(qsPopCheck)))
	step(qsPInit, c(qsPLoop))
	step(qsPLoop, ite(4, jAtEnd, c(qsFinRd), ite(4, small, c(qsSwapRd), c(qsPLoop))))
	step(qsSwapRd, c(qsSwapWr))
	step(qsSwapWr, c(qsPLoop))
	step(qsFinRd, c(qsFinWr))
	step(qsFinWr, c(qsRecurse))
	step(qsRecurse, ite(4, leftNonempty, c(qsPCheck), c(qsPopCheck)))
	step(qsPopCheck, ite(4, empty, c(qsCheck0), c(qsPop)))
	step(qsPop, c(qsPCheck))
	step(qsCheck0, c(qsCheck1))
	step(qsCheck1, c(qsChecked))
	next["state"] = ns
	next["prev"] = st

	next["lo"] = ite(pw, in(qsInit), w.constant(pw, 0), ite(pw, in(qsPop), poppedLo, r["lo"]))
	hi := ite(pw, in(qsPop), poppedHi, r["hi"])
	hi = ite(pw, and(in(qsRecurse), leftNonempty), dec(r["p"], pw), hi)
	next["hi"] = ite(pw, in(qsInit), nm1, hi)
	next["i"] = ite(pw, in(qsPInit), r["lo"], ite(pw, in(qsSwapWr), inc(r["i"], pw), r["i"]))
	advance := and(and(in(qsPLoop), not(jAtEnd)), not(small))
	j := ite(pw, or(advance, in(qsSwapWr)), inc(r["j"], pw), r["j"])
	next["j"] = ite(pw, in(qsPInit), r["lo"], j)
	next["p"] = ite(pw, in(qsFinWr), r["i"], r["p"])
	next["pivot"] = ite(dw, in(qsPInit), rd, r["pivot"])
	next["tmp"] = ite(dw, and(and(in(qsPLoop), not(jAtEnd)), small), rd, r["tmp"])
	next["chkA"] = ite(dw, in(qsCheck0), rd, r["chkA"])
	next["chkB"] = ite(dw, in(qsCheck1), rd, r["chkB"])
	next["sp"] = ite(sw+1, pushNow, inc(r["sp"], sw+1), ite(sw+1, in(qsPop), spMinus1, r["sp"]))
	emitNexts(w, rng, regs, r, next)

	// P1: sortedness of the first two elements once checked.
	w.bad(and(in(qsChecked), w.op("ugt", 1, r["chkA"], r["chkB"])), "P1")
	// P2: stack/control discipline right after a pop.
	wellFormed := and(and(in(qsPCheck), w.op("ulte", 1, r["lo"], r["hi"])), w.op("ulte", 1, r["hi"], nm1))
	w.bad(and(w.eqConst(4, r["prev"], qsPop), not(wellFormed)), "P2")
	return w.String()
}

// growthShape is one memory of the growth family: a shared-address memory
// with W write ports and R read ports, all driven by one address bus, with
// arbitrary initial contents.
type growthShape struct {
	AW, DW, R, W int
}

// plantedBug turns a growth design into a falsification job: at cycle K
// read port 1 reads address a^Mask instead of a. Two different addresses
// of an arbitrary-initialized memory can hold different words, so the
// first counter-example is at depth exactly K; before K every read port
// observes one address and the reads agree.
type plantedBug struct {
	K    int
	Mask uint64 // nonzero, < 2^AW
}

// bulkFood sizes the multiply-add chains a generated design carries for
// the frontend and the compile pipeline to chew on: COI stages sit outside
// every cone, Sweep stages sit inside the property's cone behind an
// inductively constant gate (btorSweepFood). Neither changes the verdict
// or the compiled netlist.
type bulkFood struct {
	COI, Sweep int
}

// growthCounterWidth is the width of the planted bug's cycle counter; it
// must not wrap before the deepest request.
const growthCounterWidth = 7

// growthBtor writes the growth design as BTOR2 with one bad property: some
// read port disagrees with read port 0. Without a planted bug every read
// port reads the same address of the same memory, so the property holds
// at every depth (NO_CE at any bound).
func growthBtor(rng *rand.Rand, sh growthShape, bug *plantedBug, food bulkFood) string {
	w, nm := newBtor(), newNamer(rng)
	decoysFirst := rng.Intn(2) == 0
	if decoysFirst {
		btorDecoys(w, nm, rng)
	}
	a := w.input(sh.AW, nm.name("a"))
	wd := make([]int64, sh.W)
	we := make([]int64, sh.W)
	for _, j := range rng.Perm(sh.W) {
		wd[j] = w.input(sh.DW, nm.name("wd"))
		we[j] = w.input(1, nm.name("we"))
	}
	mem := w.mem(sh.AW, sh.DW, nm.name("mem"))
	var cnt int64
	if bug != nil {
		cnt = w.reg(growthCounterWidth, nm.name("cnt"), 0)
		w.next(growthCounterWidth, cnt, w.op("add", growthCounterWidth, cnt, w.constant(growthCounterWidth, 1)))
	}
	// Write ports with exclusive enables, port 0 first.
	nx := mem
	for j := sh.W - 1; j >= 0; j-- {
		nx = w.iteMem(sh.AW, sh.DW, we[j], w.write(sh.AW, sh.DW, mem, a, wd[j]), nx)
	}
	w.nextMem(sh.AW, sh.DW, mem, nx)

	rd := make([]int64, sh.R)
	for _, i := range rng.Perm(sh.R) {
		addr := a
		if bug != nil && i == 1 {
			fire := w.eqConst(growthCounterWidth, cnt, uint64(bug.K))
			addr = w.ite(sh.AW, fire, w.op("xor", sh.AW, a, w.constant(sh.AW, bug.Mask)), a)
		}
		rd[i] = w.read(sh.DW, mem, addr)
	}
	var badAny int64
	for i := 1; i < sh.R; i++ {
		ne := w.op("neq", 1, rd[i], rd[0])
		if i == 1 {
			badAny = ne
		} else {
			badAny = w.op("or", 1, badAny, ne)
		}
	}
	if !decoysFirst {
		btorDecoys(w, nm, rng)
	}
	if food.COI > 0 {
		btorBulk(w, nm, rng, food.COI)
	}
	if food.Sweep > 0 {
		badAny = w.op("or", 1, badAny, btorSweepFood(w, nm, rng, food.Sweep))
	}
	w.bad(badAny, nm.name("agree"))
	return w.String()
}

// growthVerilog writes the same growth design as growthBtor in the Verilog
// subset the frontend reads.
func growthVerilog(rng *rand.Rand, sh growthShape, bug *plantedBug, food bulkFood) string {
	nm := newNamer(rng)
	var b strings.Builder
	ports := []string{"input clk"}
	a := nm.name("a")
	ports = append(ports, fmt.Sprintf("input [%d:0] %s", sh.AW-1, a))
	wd := make([]string, sh.W)
	we := make([]string, sh.W)
	for _, j := range rng.Perm(sh.W) {
		wd[j], we[j] = nm.name("wd"), nm.name("we")
		ports = append(ports, fmt.Sprintf("input [%d:0] %s", sh.DW-1, wd[j]), "input "+we[j])
	}
	din := nm.name("din")
	ports = append(ports, "input [7:0] "+din)
	fmt.Fprintf(&b, "// growth family: %d read / %d write ports on one address bus\n", sh.R, sh.W)
	fmt.Fprintf(&b, "module %s(%s);\n", nm.name("top"), strings.Join(ports, ", "))
	mem := nm.name("mem")
	fmt.Fprintf(&b, "  reg [%d:0] %s [%d:0];\n", sh.DW-1, mem, (1<<sh.AW)-1)
	b.WriteString("  always @(posedge clk) begin\n")
	for j := 0; j < sh.W; j++ {
		kw := "if"
		if j > 0 {
			kw = "else if"
		}
		fmt.Fprintf(&b, "    %s (%s) %s[%s] <= %s;\n", kw, we[j], mem, a, wd[j])
	}
	b.WriteString("  end\n")
	addr1 := a
	if bug != nil {
		cnt := nm.name("cnt")
		fmt.Fprintf(&b, "  reg [%d:0] %s;\n", growthCounterWidth-1, cnt)
		fmt.Fprintf(&b, "  always @(posedge clk) %s <= %s + 1;\n", cnt, cnt)
		addr1 = nm.name("a1")
		fmt.Fprintf(&b, "  wire [%d:0] %s = (%s == %d) ? (%s ^ %d) : %s;\n",
			sh.AW-1, addr1, cnt, bug.K, a, bug.Mask, a)
	}
	rd := make([]string, sh.R)
	for _, i := range rng.Perm(sh.R) {
		rd[i] = nm.name("rd")
		addr := a
		if i == 1 {
			addr = addr1
		}
		fmt.Fprintf(&b, "  wire [%d:0] %s = %s[%s];\n", sh.DW-1, rd[i], mem, addr)
	}
	verilogDecoys(&b, nm, rng, din)
	var conds []string
	for i := 1; i < sh.R; i++ {
		conds = append(conds, fmt.Sprintf("%s == %s", rd[i], rd[0]))
	}
	if food.COI > 0 {
		verilogBulk(&b, nm, rng, food.COI)
	}
	if food.Sweep > 0 {
		conds = append(conds, "!"+verilogSweepFood(&b, nm, rng, food.Sweep))
	}
	fmt.Fprintf(&b, "  assert(%s, %q);\n", strings.Join(conds, " && "), nm.name("agree"))
	b.WriteString("endmodule\n")
	return b.String()
}

// verilogDecoys is btorDecoys for the Verilog generator.
func verilogDecoys(b *strings.Builder, nm *namer, rng *rand.Rand, din string) {
	cw := 3 + rng.Intn(4)
	cnt := nm.name("dcnt")
	fmt.Fprintf(b, "  reg [%d:0] %s;\n  always @(posedge clk) %s <= %s + 1;\n", cw-1, cnt, cnt, cnt)
	dreg := nm.name("dreg")
	fmt.Fprintf(b, "  reg [7:0] %s;\n  always @(posedge clk) %s <= %s ^ %s;\n", dreg, dreg, dreg, din)
}

// verilogBulk is btorBulk for the Verilog generator; it returns the name
// of the last register.
func verilogBulk(b *strings.Builder, nm *namer, rng *rand.Rand, stages int) string {
	first := nm.name("bulk")
	prev := first
	fmt.Fprintf(b, "  reg [15:0] %s = %d;\n", first, rng.Intn(1<<16))
	for s := 0; s < stages; s++ {
		r := nm.name("bulk")
		fmt.Fprintf(b, "  reg [15:0] %s;\n  always @(posedge clk) %s <= %s * %s + 16'd%d;\n",
			r, r, prev, prev, rng.Intn(1<<16))
		prev = r
	}
	fmt.Fprintf(b, "  always @(posedge clk) %s <= %s ^ %s;\n", first, first, prev)
	return prev
}

// verilogSweepFood is btorSweepFood for the Verilog generator; it returns
// the name of the always-false wire.
func verilogSweepFood(b *strings.Builder, nm *namer, rng *rand.Rand, stages int) string {
	last := verilogBulk(b, nm, rng, stages)
	armed, arm, hot := nm.name("armed"), nm.name("arm"), nm.name("hot")
	fmt.Fprintf(b, "  reg %s;\n  wire %s = %s[0];\n  always @(posedge clk) %s <= %s & %s;\n",
		armed, arm, last, armed, armed, arm)
	fmt.Fprintf(b, "  wire %s = %s && (%s == 16'd%d);\n", hot, armed, last, rng.Intn(1<<16))
	return hot
}

// seededRNG derives an independent stream for one generated item, so an
// item's text depends only on (seed, stream, index) and not on how many
// items were generated before it.
func seededRNG(seed int64, stream string, index int) *rand.Rand {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(index)*0xbf58476d1ce4e5b9
	for _, c := range stream {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
