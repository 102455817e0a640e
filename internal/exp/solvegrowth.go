package exp

import (
	"fmt"
	"strings"
	"time"

	"emmver/internal/aig"
	"emmver/internal/bmc"
	"emmver/internal/pass"
	"emmver/internal/rtl"
)

// GrowthSolveConfig selects the solve-based variant of the growth
// experiment: the same shared-address memory shape as GrowthConfig, but the
// formula is actually handed to the solver with a valid property, so the
// run measures search effort (conflicts, wall-clock) rather than formula
// size. NoOpt disables strash and comparator memoization, so depth-local
// auxiliary gates pile up in the formula.
type GrowthSolveConfig struct {
	AW, DW  int
	MaxK    int
	NoOpt   bool
	Timeout time.Duration
	// Decoys salts the design with reduction food for the static compile
	// pipeline: a Decoys-bit free-running counter outside the property
	// cone (COI food), an inductively constant flag gating an extra write
	// port on the live memory (sweep + ports food), a dead read port on
	// the live memory (ports food), and a whole decoy memory nobody reads
	// (COI food). All of it is semantically inert — the shared-read
	// property stays valid — so passes-off and passes-on runs check the
	// same theorem over differently sized formulas. 0 keeps the clean
	// §S2 shape.
	Decoys int
	// Passes is the compile-pipeline spec for the run ("" = default
	// pipeline, pass.SpecNone = off).
	Passes string
}

// DefaultGrowthSolve is the §S2 configuration: the shared-address shape at
// reduced widths, checked to depth 24.
func DefaultGrowthSolve() GrowthSolveConfig {
	return GrowthSolveConfig{AW: 8, DW: 16, MaxK: 24, NoOpt: true}
}

// GrowthSolveResult aggregates one BMC-2 run of the solve-based growth
// experiment.
type GrowthSolveResult struct {
	Config    GrowthSolveConfig
	Kind      bmc.Kind
	Conflicts int64
	Elapsed   time.Duration
	Stats     bmc.Stats
	Depths    []bmc.DepthStat
}

// GrowthSolve builds the shared-address design — one write port and two
// read ports all driven by a single address bus — and BMC-2-checks the
// read-consistency property "re0 ∧ re1 → rd0 == rd1" up to cfg.MaxK. The
// property is valid (both ports observe the same address, so EMM forces
// equal data), which makes every depth an UNSAT instance: the solver must
// refute the whole unrolling each time, so conflicts and wall-clock track
// solver quality rather than luck in witness search.
func GrowthSolve(cfg GrowthSolveConfig) GrowthSolveResult {
	n := GrowthSolveNetlist(cfg)

	opt := bmc.Options{
		Engine: bmc.EngineBMC2, MaxDepth: cfg.MaxK, Timeout: cfg.Timeout,
		DisableStrash: cfg.NoOpt, DisableEMMMemo: cfg.NoOpt, Passes: cfg.Passes,
	}

	t0 := time.Now()
	r := bmc.Check(n, 0, opt)
	return GrowthSolveResult{
		Config:    cfg,
		Kind:      r.Kind,
		Conflicts: r.Stats.Conflicts,
		Elapsed:   time.Since(t0),
		Stats:     r.Stats,
		Depths:    r.DepthStats,
	}
}

// GrowthSolveNetlist builds the shared-address design, salted with
// cfg.Decoys worth of pipeline-removable structure when requested.
func GrowthSolveNetlist(cfg GrowthSolveConfig) *aig.Netlist {
	m := rtl.NewModule("growth-solve")
	mem := m.Memory("mem", cfg.AW, cfg.DW, aig.MemArbitrary)
	addr := m.Input("a", cfg.AW)
	mem.Write(addr, m.Input("wd", cfg.DW), m.InputBit("we"))
	re0 := m.InputBit("re0")
	re1 := m.InputBit("re1")
	rd0 := mem.Read(addr, re0)
	rd1 := mem.Read(addr, re1)

	var regs []*rtl.Reg
	if cfg.Decoys > 0 {
		junk := m.Register("junk", cfg.Decoys, 0)
		junk.SetNext(m.Inc(junk.Q))
		flag := m.BitReg("flag0", false)
		flag.SetNext(rtl.Vec{flag.Bit()}) // holds 0: inductively constant
		// Extra write on the live memory, gated by the constant flag:
		// sweep folds the enable to false, ports then drops the port.
		mem.Write(m.Input("da", cfg.AW), m.Input("dd", cfg.DW), flag.Bit())
		// Dead read on the live memory: its data drives nothing.
		mem.Read(m.Input("dra", cfg.AW), m.InputBit("dre"))
		// A whole memory outside the cone.
		decoy := m.Memory("decoy", cfg.AW, cfg.DW, aig.MemArbitrary)
		decoy.Write(m.Input("xa", cfg.AW), m.Input("xd", cfg.DW), m.InputBit("xwe"))
		decoy.Read(m.Input("xra", cfg.AW), m.InputBit("xre"))
		regs = append(regs, junk, flag)
	}

	both := m.N.And(re0, re1)
	ok := m.N.And(both, m.Eq(rd0, rd1).Not()).Not()
	m.AssertAlways("shared-read-agree", ok)
	m.Done(regs...)
	return m.N
}

// CompileABResult is the §S3 artifact: the decoy-salted growth design
// verified to MaxK with the static compile pipeline off and on, plus the
// pipeline's static size deltas.
type CompileABResult struct {
	Off, On       GrowthSolveResult
	Before, After pass.Counts
	Applied       []string
}

// DefaultCompileAB is the §S3 configuration: the §S2 solve shape plus
// 16 bits of decoy state and the decoy memory/ports.
func DefaultCompileAB() GrowthSolveConfig {
	cfg := DefaultGrowthSolve()
	cfg.Decoys = 16
	return cfg
}

// CompileAB runs the compile-pipeline A/B experiment: one passes-off and
// one default-pipeline verification of the decoy-salted shared-address
// design, with the static reduction measured separately.
func CompileAB(cfg GrowthSolveConfig) (CompileABResult, error) {
	var res CompileABResult
	n := GrowthSolveNetlist(cfg)
	c, err := pass.Compile(n, []int{0}, pass.Options{})
	if err != nil {
		return res, err
	}
	res.Before, res.After = pass.CountsOf(n), pass.CountsOf(c.N)
	res.Applied = c.Applied

	off := cfg
	off.Passes = pass.SpecNone
	res.Off = GrowthSolve(off)
	on := cfg
	on.Passes = "" // default pipeline
	res.On = GrowthSolve(on)
	return res, nil
}

// RenderCompileAB prints the §S3 before/after table: static netlist sizes
// and cumulative depth-MaxK CNF clauses / conflicts / wall-clock with the
// pipeline off and on.
func RenderCompileAB(r CompileABResult) string {
	var b strings.Builder
	cfg := r.Off.Config
	fmt.Fprintf(&b, "compile pipeline A/B (shared-address + decoys, AW=%d DW=%d decoys=%d, depth %d, passes=[%s])\n",
		cfg.AW, cfg.DW, cfg.Decoys, cfg.MaxK, strings.Join(r.Applied, ","))
	fmt.Fprintf(&b, "| metric | passes off | passes on |\n")
	fmt.Fprintf(&b, "|--------|-----------:|----------:|\n")
	fmt.Fprintf(&b, "| nodes | %d | %d |\n", r.Before.Nodes, r.After.Nodes)
	fmt.Fprintf(&b, "| latches | %d | %d |\n", r.Before.Latches, r.After.Latches)
	fmt.Fprintf(&b, "| memories | %d | %d |\n", r.Before.Mems, r.After.Mems)
	fmt.Fprintf(&b, "| memory ports | %d | %d |\n", r.Before.MemPorts, r.After.MemPorts)
	fmt.Fprintf(&b, "| CNF clauses @ depth %d | %d | %d |\n", cfg.MaxK, r.Off.Stats.Clauses, r.On.Stats.Clauses)
	fmt.Fprintf(&b, "| conflicts | %d | %d |\n", r.Off.Conflicts, r.On.Conflicts)
	fmt.Fprintf(&b, "| wall-clock | %s | %s |\n",
		r.Off.Elapsed.Round(time.Millisecond), r.On.Elapsed.Round(time.Millisecond))
	if r.Off.Stats.Clauses > 0 {
		fmt.Fprintf(&b, "clause reduction: %.1f%% (verdict %s vs %s, both must agree)\n",
			100*(1-float64(r.On.Stats.Clauses)/float64(r.Off.Stats.Clauses)),
			r.Off.Kind, r.On.Kind)
	}
	return b.String()
}
