// Package emmver is a SAT-based bounded model checker for embedded memory
// systems built around Efficient Memory Modeling (EMM), reproducing
//
//	Ganai, Gupta, Ashar: "Verification of Embedded Memory Systems using
//	Efficient Memory Modeling", DATE 2005.
//
// Instead of expanding each embedded memory into 2^AW × DW state bits, EMM
// removes the arrays and constrains the retained memory interface signals
// with data-forwarding semantics at every analysis depth — for any number
// of memories, each with any number of read and write ports — and models
// arbitrary initial memory contents precisely, which makes SAT-based
// induction proofs possible on the abstracted model. Proof-based
// abstraction (PBA) identifies the latches, memories, and ports a property
// actually depends on and prunes the rest.
//
// # Quick start
//
//	d := emmver.NewDesign("demo")
//	mem := d.Memory("ram", 4, 8, emmver.MemZero)
//	addr := d.Input("addr", 4)
//	data := mem.Read(addr, emmver.True)
//	d.AssertAlways("read-zero", d.IsZero(data))
//	res := emmver.Verify(d.N, 0, emmver.Options{Engine: emmver.EngineBMC3, MaxDepth: 50})
//	fmt.Println(res)
//
// The package is a facade over the internal engine:
//
//	internal/sat     CDCL SAT solver with UNSAT-core proof tracing
//	internal/aig     and-inverter netlists with first-class memories
//	internal/rtl     word-level design entry (registers, buses, FSMs)
//	internal/unroll  time-frame expansion with tagged CNF
//	internal/core    the EMM constraint generation (the paper's §3–§4)
//	internal/expmem  the Explicit Modeling baseline
//	internal/pass    the static compile pipeline (COI, sweep, ports, dedup)
//	internal/bmc     the bmc1 / bmc2 / bmc3 engines and the PBA flow
//	internal/pba     latch-reason tracking and model reduction
//	internal/bdd     a BDD-based model checker for comparison
//	internal/sim     concrete-memory simulation and witness replay
//	internal/designs the paper's case studies (quicksort, filter, lookup)
//	internal/exp     the Table 1 / Table 2 / case-study harness
//	internal/spec    the serializable request schema (engine + options)
//	internal/serve   the verification job server and verdict cache
package emmver

import (
	"context"
	"io"

	"emmver/internal/aig"
	"emmver/internal/bmc"
	"emmver/internal/expmem"
	"emmver/internal/obs"
	"emmver/internal/rtl"
	"emmver/internal/sim"
	"emmver/internal/verilog"
)

// Design-entry aliases: a Design is a word-level module under
// construction; Vec is a bus of bits.
type (
	// Design is a word-level design under construction.
	Design = rtl.Module
	// Vec is a bus, least-significant bit first.
	Vec = rtl.Vec
	// Reg is a register.
	Reg = rtl.Reg
	// Mem is an embedded memory handle.
	Mem = rtl.Mem
	// FSM is a finite-state-machine helper.
	FSM = rtl.FSM
	// Netlist is the compiled and-inverter netlist.
	Netlist = aig.Netlist
	// Bit is a single signal (possibly complemented).
	Bit = aig.Lit
)

// Constant bits.
const (
	// False is the constant-0 signal.
	False = aig.False
	// True is the constant-1 signal.
	True = aig.True
)

// Memory initialization modes.
const (
	// MemZero: every word starts at zero.
	MemZero = aig.MemZero
	// MemArbitrary: unconstrained initial contents, modeled precisely
	// (§4.2) so proofs remain sound.
	MemArbitrary = aig.MemArbitrary
	// MemImage: initialized from an explicit image (simulation and
	// explicit modeling only).
	MemImage = aig.MemImage
)

// NewDesign starts a new word-level design.
func NewDesign(name string) *Design { return rtl.NewModule(name) }

// Verification aliases.
type (
	// Options configures a verification run; Options.Engine names the
	// algorithm (see EngineBMC1 and its siblings).
	Options = bmc.Options
	// Result is a verification outcome.
	Result = bmc.Result
	// ManyResult is the outcome of a VerifyAll run.
	ManyResult = bmc.ManyResult
	// Witness is a counter-example trace.
	Witness = bmc.Witness
	// PBAResult is the outcome of the prove-with-abstraction flow.
	PBAResult = bmc.PBAResult
)

// Observability aliases: an Observer couples a metrics Registry (atomic
// counters/gauges every engine layer publishes into) with an optional
// TraceSink receiving structured span events. See Observe and NewJSONLTrace.
type (
	// Observer attaches metrics and tracing to a run (Options.Obs).
	Observer = obs.Observer
	// Registry accumulates named counters and gauges.
	Registry = obs.Registry
	// TraceSink consumes structured trace events.
	TraceSink = obs.Sink
	// TraceEvent is one span start/end or point event.
	TraceEvent = obs.Event
	// JSONLTrace is the journaling TraceSink included with the package.
	JSONLTrace = obs.JSONL
)

// NewJSONLTrace builds a buffered JSON-lines trace journal over w (one
// flat object per event, jq-friendly). Call Close (or Flush) when the run
// is done.
func NewJSONLTrace(w io.Writer) *JSONLTrace { return obs.NewJSONL(w) }

// Observe returns a copy of opt instrumented with a fresh metrics registry
// and the given trace sink (nil sink: metrics only). Read the totals
// afterwards via opt.Obs.Registry().Snapshot().
func Observe(opt Options, sink TraceSink) Options {
	opt.Obs = obs.New(obs.NewRegistry(), sink)
	return opt
}

// Result kinds.
const (
	// NoCounterExample: the bound was exhausted.
	NoCounterExample = bmc.KindNoCE
	// CounterExample: a violation was found (and, by default on
	// unabstracted models, replayed on the concrete design).
	CounterExample = bmc.KindCE
	// Proved: a termination check proved the property for all depths.
	Proved = bmc.KindProof
	// TimedOut: the time budget expired.
	TimedOut = bmc.KindTimeout
)

// Engine names, the values of Options.Engine; the empty name is plain BMC
// (no memory constraints, no proofs).
const (
	// EngineBMC1 is plain BMC with induction proofs (Fig. 1) — for designs
	// without memories or with explicitly expanded ones.
	EngineBMC1 = bmc.EngineBMC1
	// EngineBMC2 is EMM falsification (Fig. 2).
	EngineBMC2 = bmc.EngineBMC2
	// EngineBMC3 is EMM with induction proofs (Fig. 3); ProveWithAbstraction
	// adds the proof-based abstraction. A memory with no write port keeps
	// its declared contents in the induction step, so a read-only table
	// needs no invariant to be proved.
	EngineBMC3 = bmc.EngineBMC3
)

// Verify model-checks one safety property of a design.
func Verify(n *Netlist, prop int, opt Options) *Result {
	return VerifyCtx(context.Background(), n, prop, opt)
}

// VerifyCtx is Verify under a cancellation context: when ctx is cancelled
// (or its deadline passes) the run stops at the next solver poll and
// reports TimedOut. An already-cancelled ctx returns immediately.
func VerifyCtx(ctx context.Context, n *Netlist, prop int, opt Options) *Result {
	return bmc.CheckCtx(ctx, n, prop, opt)
}

// VerifyAll model-checks many properties of one design. The properties
// are split into Options.Jobs groups (0 selects NumCPU), each running over
// one shared incremental unrolling, and the groups share a
// forward-termination oracle; Jobs == 1 runs every property over a single
// unrolling. Verdicts are identical at any Jobs.
func VerifyAll(n *Netlist, props []int, opt Options) *ManyResult {
	return VerifyAllCtx(context.Background(), n, props, opt)
}

// VerifyAllCtx is VerifyAll under a cancellation context; see VerifyCtx.
func VerifyAllCtx(ctx context.Context, n *Netlist, props []int, opt Options) *ManyResult {
	return bmc.CheckManyParallelCtx(ctx, n, props, opt, opt.Jobs)
}

// ProveWithAbstraction runs the §4.3 flow over the base engine
// opt.Engine (EngineBMC3 for the paper's BMC-3): collect a stable
// latch-reason set with PBA, reduce the model (dropping irrelevant
// memories and ports), and prove on the reduced model.
func ProveWithAbstraction(n *Netlist, prop int, opt Options) *PBAResult {
	return bmc.ProveWithPBA(n, prop, opt)
}

// ExpandMemories builds the Explicit Modeling baseline: every memory
// becomes 2^AW × DW latches. It reports an error for inputs explicit
// modeling cannot represent — combinational cycles through memory ports,
// or expansions past expmem.MaxExpandedBits (the blowup EMM exists to
// avoid).
func ExpandMemories(n *Netlist) (*Netlist, error) {
	out, _, err := expmem.Expand(n)
	return out, err
}

// NewSimulator builds a cycle-accurate concrete-memory simulator for a
// design.
func NewSimulator(n *Netlist) *sim.Simulator { return sim.New(n) }

// CompileVerilog elaborates a synthesizable-subset Verilog source (memory
// arrays become embedded memory modules; assert()/assume() items become
// properties and constraints). top selects the root module.
func CompileVerilog(src, top string) (*Netlist, error) {
	return verilog.ElaborateString(src, top)
}
