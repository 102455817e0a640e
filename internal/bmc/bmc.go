// Package bmc implements the paper's SAT-based model checking algorithms
// over aig netlists. Options.Engine names the algorithm:
//
//   - "" (plain BMC): counter-example checks only, memory read data left
//     free.
//   - bmc1, BMC-1 (Fig. 1): plain BMC with forward/backward termination
//     checks (SAT-based induction proofs). Meant for memory-free models —
//     in particular the Explicit Modeling baseline produced by package
//     expmem.
//   - bmc2, BMC-2 (Fig. 2): BMC with EMM constraints, falsification only.
//   - bmc3, BMC-3 (Fig. 3): BMC with EMM constraints and termination
//     proofs, using the precise arbitrary-initial-state modeling of §4.2
//     for every written memory. A memory with no write port never
//     changes, so the backward window keeps its declared contents: that
//     lets the induction step prove properties that depend on them, such
//     as a zero-initialized ROM that is only read.
//
// Three flows run an engine more than once: ProveWithPBA (§4.3 proof-based
// abstraction, the rest of Fig. 3), CEGAR (the refinement loop the paper
// contrasts it with) and CheckManyParallel (many properties over shared
// unrollings, racing the termination checks for a single property).
//
// The engine is layered (one struct, three responsibilities in three
// files): the Model (model.go) owns the unrolled time frames, EMM
// constraints, and witness extraction; the Session (session.go) owns the
// incremental solvers' lifecycles — construction, interrupts,
// statistics; the Strategy (strategy.go) is the per-depth
// decision procedure. All engines share the Model and Session and differ
// only in their Strategy and the constraints their name selects.
package bmc

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"emmver/internal/aig"
	"emmver/internal/core"
	"emmver/internal/obs"
	"emmver/internal/pass"
	"emmver/internal/pba"
	"emmver/internal/sat"
	"emmver/internal/unroll"
)

// Engine names, the values of Options.Engine. They are the spec's engine
// names (package spec re-exports them); the empty name is plain BMC, and
// the spec's pba is the ProveWithPBA flow over bmc3 rather than an engine
// of its own.
const (
	// EngineBMC1 is plain BMC with forward/backward termination checks
	// (Fig. 1). Memory reads stay free, so it is meant for memory-free
	// models such as the Explicit Modeling baseline.
	EngineBMC1 = "bmc1"
	// EngineBMC2 is BMC with EMM constraints, falsification only (Fig. 2).
	EngineBMC2 = "bmc2"
	// EngineBMC3 is BMC with EMM constraints and termination checks
	// (Fig. 3).
	EngineBMC3 = "bmc3"
)

// engineMode is what an engine name selects: EMM constraints on the memory
// interface and the forward/backward termination checks.
type engineMode struct{ emm, proofs bool }

var engineModes = map[string]engineMode{
	"":         {},
	EngineBMC1: {proofs: true},
	EngineBMC2: {emm: true},
	EngineBMC3: {emm: true, proofs: true},
}

// modeOf resolves an engine name. An unknown name is a caller bug (the
// spec layer validates user input), so it panics with the name.
func modeOf(engine string) engineMode {
	m, ok := engineModes[engine]
	if !ok {
		panic(fmt.Sprintf("bmc: unknown engine %q", engine))
	}
	return m
}

// withProofs names the engine with engine's memory model and the
// termination checks on or off: bmc1 and plain BMC swap, as do bmc3 and
// bmc2. The multi-run flows (ProveWithPBA, CEGAR) use it to derive their
// phases from one base engine.
func withProofs(engine string, on bool) string {
	m := modeOf(engine)
	switch {
	case on == m.proofs:
		return engine
	case m.emm && on:
		return EngineBMC3
	case m.emm:
		return EngineBMC2
	case on:
		return EngineBMC1
	}
	return ""
}

// Options configures a BMC run.
type Options struct {
	// Engine selects the algorithm by name: "" is plain BMC (no EMM
	// constraints, so memory read data stays entirely unconstrained — the
	// "abstract out the memory completely" configuration of the Industry
	// II case study — and no termination checks), and EngineBMC1,
	// EngineBMC2 and EngineBMC3 are the named engines. An unknown name
	// panics.
	Engine string
	// MaxDepth is the bound n of Figs. 1–3.
	MaxDepth int
	// StabilityDepth is the number of depths ProveWithPBA's latch-reason
	// set must stay unchanged before the abstraction is considered stable
	// (0 selects the paper's 10, as in Table 2).
	StabilityDepth int
	// Timeout bounds the wall-clock time of the whole run (0 = none).
	Timeout time.Duration
	// ValidateWitness replays counter-examples on the concrete-memory
	// simulator and fails loudly on divergence. Only meaningful on
	// unabstracted models whose memories the engine models: plain BMC and
	// bmc1 leave memory reads free, so on a design with memories their
	// counter-examples may not replay.
	ValidateWitness bool
	// DisableExclusivity switches EMM to the direct eq. 1 encoding
	// without the exclusive valid-read chains — the ablation for the
	// paper's claim that the chains speed up the SAT solver.
	DisableExclusivity bool
	// DisableStrash turns off structural hashing in the unrollers, and
	// DisableEMMMemo turns off EMM comparator memoization. Both exist for
	// A/B measurement and the equivalence tests; the optimizations are on
	// by default.
	DisableStrash  bool
	DisableEMMMemo bool
	// Log, when non-nil, receives per-depth progress lines.
	Log io.Writer
	// Obs attaches the observability layer: every engine the run creates
	// publishes metrics into Obs's registry (solver conflicts, EMM clause
	// families, strash hits, ...) and — when a trace sink is attached —
	// emits typed start/end span events for each depth step, each
	// forward/backward/counter-example solver call, each EMM generation
	// step, and each portfolio lane. Nil (the default) costs nothing.
	Obs *obs.Observer
	// Passes selects the static compile pipeline every public entry point
	// (Check/CheckCtx/CheckManyParallel*) runs before the first
	// solver call: "" for the default pass.SpecDefault pipeline
	// (coi,sweep,ports,dedup), "none" to disable it, or an explicit
	// comma-separated pass list. Results are always reported in source
	// netlist coordinates — witnesses, latch reasons, and property indices
	// are translated back through the pipeline's mapping.
	Passes string
	// Jobs is the worker count used by entry points that fan out across
	// properties or lanes (the facade's VerifyAll and the CLIs): 0 picks
	// runtime.NumCPU, and n >= 1 splits the properties into min(n, #props)
	// groups, each sharing one unrolling (see CheckManyParallel), so 1 runs
	// every property over a single shared unrolling. Check itself ignores
	// it; CheckManyParallel races the termination lanes of a single
	// property.
	Jobs int
	// StartDepth warm-starts the BMC loop: the unrolling and EMM
	// constraints are still built from frame 0 (they are cumulative), but
	// the per-depth solver checks — forward/backward termination and the
	// counter-example query — only begin at this depth. The caller asserts
	// that every depth below StartDepth is already known counter-example
	// free, e.g. from a cached verdict of an identical run at a shallower
	// bound; the emmserved verdict cache sets it when a resubmission asks
	// for a deeper bound than a stored NO_CE. Skipping a depth's checks
	// can never flip a verdict (each depth's queries are self-contained
	// assumptions), and because a NO_CE cache entry implies the skipped
	// termination checks were SAT, a warm-started run reaches the same
	// verdict at the same depth as a cold one. Honored by Check/CheckCtx;
	// the multi-property entry points ignore it.
	StartDepth int

	// pba turns on proof tracing and latch-reason collection on the
	// counter-example checks (ProveWithPBA's phase 1, CEGAR's
	// concretization checks).
	//
	// Proof tracing changes more than the solver: while cores are being
	// harvested, the engine also turns off structural hashing in the
	// unrollers, init-literal folding and comparator memoization. All
	// three optimizations share clauses across clause tags, and PBA
	// attributes relevance by tag — a shared clause would implicate only
	// its first creator, so the abstraction could silently drop latches or
	// EMM events the proof needs. TestPBADisablesClauseSharing pins the
	// coupling.
	pba bool
	// stopAtStable ends a pba run (with KindStable) once the latch-reason
	// set has been stable for StabilityDepth depths.
	stopAtStable bool
	// portfolio runs the depth-level checks of a run with termination
	// checks as a two-lane race (CheckManyParallel sets it for a single
	// property when more than one worker is free): one goroutine owns the
	// forward solver (forward termination, then the counter-example
	// check), the other owns the backward solver (backward termination).
	// The first decisive answer interrupts the other lane. Verdicts are
	// unchanged, but when forward and backward termination both prove at
	// the same depth the reported ProofSide may differ from the
	// sequential run's.
	portfolio bool
	// eagerEMM keeps a run that would be lazy (see newWindow) on the eager
	// EMM encoding: the reference side of the package's lazy-vs-eager
	// differential tests.
	eagerEMM bool
	// abs runs the check on a reduced model: latches in abs.FreeLatches
	// become pseudo-primary inputs and disabled memories/ports get no EMM
	// constraints (§4.3). ProveWithPBA's phase 2 and CEGAR's abstract
	// checks set it.
	abs *pba.Abstraction
	// disableEq6 drops the arbitrary-initial-state consistency
	// constraints (§4.2, eq. 6), demonstrating why proofs need them
	// (TestArbitraryInitProofNeedsEq6).
	disableEq6 bool
	// pureLatchLFP uses the paper's literal loop-free-path constraint
	// (latch states pairwise distinct). The default strengthens state
	// equality with "and no write fired in between", which keeps the
	// forward-termination proof sound when memory contents evolve;
	// TestPureLatchLFPIsUnsound shows a design where the literal check
	// claims a bogus proof.
	pureLatchLFP bool
}

// Kind classifies a Result.
type Kind int

// Result kinds.
const (
	// KindNoCE: the bound was exhausted without finding a violation.
	KindNoCE Kind = iota
	// KindCE: a counter-example was found.
	KindCE
	// KindProof: a termination check proved the property.
	KindProof
	// KindStable: ProveWithPBA's phase 1 stopped because its latch-reason
	// set became stable.
	KindStable
	// KindTimeout: the time budget expired.
	KindTimeout
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNoCE:
		return "NO_CE"
	case KindCE:
		return "CE"
	case KindProof:
		return "PROOF"
	case KindStable:
		return "STABLE"
	case KindTimeout:
		return "TIMEOUT"
	}
	return "?"
}

// Stats aggregates run statistics, mirroring the paper's time/memory
// reporting.
type Stats struct {
	Elapsed    time.Duration
	SolveCalls int
	Clauses    int
	Vars       int
	Conflicts  int64
	PeakHeapMB float64
	EMM        core.Sizes
	Restarts   int64
	// Lazy-EMM refinement (zero unless the run was lazy: EMM without
	// termination checks, PBA or the eq. 1 ablation; see newWindow): model
	// validations run by the semantic oracle and SAT models it rejected,
	// over every query. The instantiated-axiom count lives in
	// EMM.LazyAxioms — the EMM tally reports the forward window's
	// generator, which hosts the counter-example queries.
	LazyRounds   int64
	LazySpurious int64
	// Demand-driven loop-free-path constraints (zero unless Proofs): pair
	// constraints added after a termination-check model repeated a state,
	// and the re-solves they cost.
	LFPPairs  int64
	LFPRounds int64
}

// Add accumulates o into s. CheckManyParallel uses it to merge the
// property groups' statistics after the workers have joined: counters sum,
// while the heap high-water mark and the EMM constraint tally (which every
// group re-generates identically) take the maximum.
func (s *Stats) Add(o Stats) {
	s.SolveCalls += o.SolveCalls
	s.Clauses += o.Clauses
	s.Vars += o.Vars
	s.Conflicts += o.Conflicts
	s.Restarts += o.Restarts
	s.LazyRounds += o.LazyRounds
	s.LazySpurious += o.LazySpurious
	s.LFPPairs += o.LFPPairs
	s.LFPRounds += o.LFPRounds
	if o.PeakHeapMB > s.PeakHeapMB {
		s.PeakHeapMB = o.PeakHeapMB
	}
	if o.EMM.Clauses() > s.EMM.Clauses() {
		s.EMM = o.EMM
	}
}

// DepthStat is the per-depth delta of formula growth and solver work,
// recorded for every processed depth. Each field is the increase
// over the previous depth (so summing a column gives the run total).
type DepthStat struct {
	Depth        int
	Clauses      int   // solver clauses added this depth (both solvers)
	Vars         int   // solver variables added this depth
	EMMClauses   int   // EMM constraint clauses (incl. eq. 6) this depth
	StrashHits   int   // AND gates answered from the strash cache
	CompMemoHits int   // address comparators answered from the memo cache
	Propagations int64 // solver propagations spent on this depth's checks
	Conflicts    int64
	Decisions    int64
	Solves       int // SAT calls issued at this depth
	Elapsed      time.Duration
}

// String renders one table line.
func (d DepthStat) String() string {
	return fmt.Sprintf("depth %3d: +%d clauses +%d vars (emm +%d, strash %d, memo %d) | %d solves %d props %d confl %s",
		d.Depth, d.Clauses, d.Vars, d.EMMClauses, d.StrashHits, d.CompMemoHits,
		d.Solves, d.Propagations, d.Conflicts, d.Elapsed.Round(time.Millisecond))
}

// Result is the outcome of a Check run.
type Result struct {
	Kind  Kind
	Prop  int
	Depth int // CE depth, proof depth, stable depth, or last completed depth
	// ProofSide is "forward" or "backward" for KindProof.
	ProofSide string
	Witness   *Witness
	// Tracker carries the accumulated latch reasons of a proof-tracing run
	// (ProveWithPBA's phase 1, CEGAR's concretization checks).
	Tracker *pba.Tracker
	Stats   Stats
	// DepthStats holds the per-depth deltas, one per processed depth.
	DepthStats []DepthStat
}

// String renders a one-line summary.
func (r *Result) String() string {
	s := fmt.Sprintf("%s depth=%d t=%s", r.Kind, r.Depth, r.Stats.Elapsed.Round(time.Millisecond))
	if r.Kind == KindProof {
		s += " (" + r.ProofSide + ")"
	}
	return s
}

type engine struct {
	n    *aig.Netlist
	opt  Options
	mode engineMode // what opt.Engine selects
	prop int
	ctx  context.Context

	fs *sat.Solver
	fu *unroll.Unroller
	fg *core.Generator

	bs *sat.Solver
	bu *unroll.Unroller
	bg *core.Generator

	tracker  *pba.Tracker
	start    time.Time
	deadline time.Time
	// bwdSatProp and bwdSatDepth name the backward query whose model the
	// backward solver's saved phases hold: set when a backward check
	// answers SAT, cleared (-1) by any other answer. They guard the phase
	// shift in alignBackwardPhases.
	bwdSatProp, bwdSatDepth int
	// Solver-call and refinement tallies, atomic because the two
	// portfolio lanes bump them concurrently.
	solveCalls   atomic.Int64
	lfpPairs     atomic.Int64
	lfpRounds    atomic.Int64
	lazyRounds   atomic.Int64
	lazySpurious atomic.Int64

	depthStats []DepthStat
	mark       depthMark

	// Observability handle plus the gauges/counters the engine itself
	// maintains (the solvers/unrollers/generators publish their own).
	obs         *obs.Observer
	obsDepth    *obs.Gauge
	obsProps    *obs.Counter
	obsCoreSize *obs.Gauge
	obsLR       *obs.Gauge
	// Refinement counters (refineSolve).
	obsLazyRounds   *obs.Counter
	obsLazyAxioms   *obs.Counter
	obsLazySpurious *obs.Counter
	obsLFPPairs     *obs.Counter
	obsLFPRounds    *obs.Counter
	// Forward checks the groups' shared oracle answered (oracleForwardCheck).
	obsFwdOracle *obs.Counter
}

func newEngine(ctx context.Context, n *aig.Netlist, prop int, opt Options) *engine {
	e := &engine{n: n, opt: opt, mode: modeOf(opt.Engine), prop: prop, ctx: ctx,
		start: time.Now(), bwdSatProp: -1, bwdSatDepth: -1}
	if opt.Timeout > 0 {
		e.deadline = e.start.Add(opt.Timeout)
	}
	e.obs = opt.Obs
	if reg := opt.Obs.Registry(); reg != nil {
		e.obsDepth = reg.Gauge(obs.MDepth)
		e.obsProps = reg.Counter(obs.MPropsResolved)
		e.obsCoreSize = reg.Gauge(obs.MPBACoreSize)
		e.obsLR = reg.Gauge(obs.MPBALatchReasons)
		e.obsLazyRounds = reg.Counter(obs.MLazyRounds)
		e.obsLazyAxioms = reg.Counter(obs.MLazyAxioms)
		e.obsLazySpurious = reg.Counter(obs.MLazySpurious)
		e.obsLFPPairs = reg.Counter(obs.MLFPPairs)
		e.obsLFPRounds = reg.Counter(obs.MLFPRounds)
		e.obsFwdOracle = reg.Counter(obs.MFwdOracleHits)
	}
	// Model construction (model.go): each window is an unrolling plus its
	// EMM generator over a fresh session solver (session.go).
	e.fs, e.fu, e.fg = e.newWindow(unroll.Initialized)
	if opt.pba {
		e.tracker = pba.NewTracker()
	}
	if e.mode.proofs {
		e.bs, e.bu, e.bg = e.newWindow(unroll.Free)
	}
	return e
}

func (e *engine) logf(format string, args ...interface{}) {
	if e.opt.Log != nil {
		fmt.Fprintf(e.opt.Log, format+"\n", args...)
	}
}

// obsResolved counts a decisive per-property verdict (anything but a
// timeout) on the run-wide properties-resolved counter.
func (e *engine) obsResolved(k Kind) {
	if k != KindTimeout {
		e.obsProps.Inc()
	}
}

// obsPBAUpdate feeds one depth's UNSAT core into the tracker and mirrors
// the abstraction state (core size, latch-reason set) onto the registry
// gauges plus a point event in the trace.
func (e *engine) obsPBAUpdate(i int) {
	core := e.fs.Core()
	e.tracker.Update(i, core)
	e.obsCoreSize.Set(int64(len(core)))
	e.obsLR.Set(int64(e.tracker.Size()))
	e.obs.Point("pba.update",
		obs.F("depth", i),
		obs.F("core", len(core)),
		obs.F("lr", e.tracker.Size()),
		obs.F("stable", e.tracker.StableFor(i)))
}

// forwardCheck runs the property-independent forward termination check at
// depth i: SAT(I ∧ LFP_i ∧ C_i).
func (e *engine) forwardCheck(i int) sat.Status {
	sp := e.obs.Span("solve.forward", obs.F("depth", i))
	return e.refineSolve(sp, window{e.fs, e.fu, e.fg}, i, e.fu.LoopFreeLit(i))
}

// backwardCheck runs the backward termination (induction step) check for
// prop at depth i: SAT(LFP_i ∧ ¬P_i ∧ CP_i ∧ C_i).
func (e *engine) backwardCheck(prop, i int) sat.Status {
	sp := e.obs.Span("solve.backward", obs.F("depth", i), obs.F("prop", prop))
	assumps := []sat.Lit{e.bu.LoopFreeLit(i), e.bu.PropertyLit(prop, i).Not()}
	for j := 0; j < i; j++ {
		assumps = append(assumps, e.bu.PropertyLit(prop, j))
	}
	e.alignBackwardPhases(prop, i)
	st := e.refineSolve(sp, window{e.bs, e.bu, e.bg}, i, assumps...)
	e.bwdSatProp, e.bwdSatDepth = -1, -1
	if st == sat.Sat {
		e.bwdSatProp, e.bwdSatDepth = prop, i
	}
	return st
}

// alignBackwardPhases seeds the depth-i backward query of prop with the
// depth-(i-1) model moved one frame later. The backward window unrolls
// forward from a free state, so each new depth puts the bad state one
// frame later; after the shift the previous model's bad state lies on
// frame i again and only frame 0 lacks a predecessor. It shifts only when
// the saved phases are that model — the solver's last answer was SAT for
// prop at depth i-1 — and the window holds no frame beyond i. Otherwise
// (a sibling property's model, which at the same depth is already aligned,
// or an engine reused from a deeper run) the phases stay as they are.
func (e *engine) alignBackwardPhases(prop, i int) {
	if e.bwdSatProp == prop && e.bwdSatDepth == i-1 && e.bu.Frames() == i+1 {
		e.bu.ShiftPhases(i)
	}
}

// ceCheck runs the counter-example check for prop at depth i:
// SAT(I ∧ ¬P_i ∧ C_i). It assumes no loop-free-path literal, so an eager
// CE query is a single solve.
func (e *engine) ceCheck(prop, i int) sat.Status {
	sp := e.obs.Span("solve.ce", obs.F("depth", i), obs.F("prop", prop),
		obs.F("lazy", e.fg.Lazy()))
	return e.refineSolve(sp, window{e.fs, e.fu, e.fg}, noLFP, e.fu.PropertyLit(prop, i).Not())
}

// noLFP is refineSolve's lfp argument for a query that assumes no
// loop-free-path literal.
const noLFP = -1

// refineSolve is the refine-while-SAT loop every query runs through. It
// solves window w under assumps and checks each SAT model twice before
// accepting it: when the query assumes the loop-free-path literal of depth
// lfp, u.RefineLoopFree adds the pair constraint of every frame pair the
// model repeats; when w's generator is lazy, its semantic oracle
// (g.RefineLazy) instantiates the read-over-write axioms the model's
// memory-interface trace violates. Whatever either check adds, the query
// is re-solved incrementally. Both add subsets of the eager encoding, so
// UNSAT is the eager UNSAT; SAT is returned only for a model that passes
// both checks, i.e. one the eager encoding admits too. Verdicts, depths
// and proof sides are therefore exactly those of the eager encoding. The
// loop ends span sp with its result and refinement tallies.
func (e *engine) refineSolve(sp obs.Span, w window, lfp int, assumps ...sat.Lit) sat.Status {
	lazy := w.g.Lazy()
	axioms := 0
	if lazy {
		axioms = w.g.Sizes().LazyAxioms
	}
	var pairs, lfpRounds, rounds, spurious int64
	st := e.solve(w.s, assumps...)
	for st == sat.Sat {
		added, viol := 0, 0
		if lfp != noLFP {
			added = w.u.RefineLoopFree(lfp)
		}
		if lazy {
			rounds++
			viol = w.g.RefineLazy()
		}
		if added == 0 && viol == 0 {
			break
		}
		if added > 0 {
			pairs += int64(added)
			lfpRounds++
		}
		if viol > 0 {
			spurious++
		}
		st = e.solve(w.s, assumps...)
	}
	e.lfpPairs.Add(pairs)
	e.lfpRounds.Add(lfpRounds)
	e.obsLFPPairs.Add(pairs)
	e.obsLFPRounds.Add(lfpRounds)
	if lazy {
		e.lazyRounds.Add(rounds)
		e.lazySpurious.Add(spurious)
		e.obsLazyRounds.Add(rounds)
		e.obsLazySpurious.Add(spurious)
		e.obsLazyAxioms.Add(int64(w.g.Sizes().LazyAxioms - axioms))
	}
	sp.End(obs.F("result", st.String()), obs.F("lfp_pairs", pairs),
		obs.F("lfp_rounds", lfpRounds), obs.F("rounds", rounds))
	return st
}

// validateWitness replays w on the concrete-memory simulator when the run
// is configured to and fails loudly on divergence.
func (e *engine) validateWitness(w *Witness, prop int) {
	if e.opt.ValidateWitness && e.opt.abs == nil {
		if err := w.Replay(e.n, prop); err != nil {
			panic(fmt.Sprintf("bmc: witness replay failed: %v", err))
		}
	}
}

// Check runs the configured algorithm for property prop of n.
func Check(n *aig.Netlist, prop int, opt Options) *Result {
	return CheckCtx(context.Background(), n, prop, opt)
}

// CheckCtx is Check under a cancellation context: when ctx is cancelled the
// run stops at the next solver poll and reports KindTimeout. The parallel
// engines use it to tear a whole pool down as soon as its outcome is
// decided.
//
// Like every public entry point, CheckCtx first runs the static compile
// pipeline selected by Options.Passes and then translates the result back
// to n's coordinates.
func CheckCtx(ctx context.Context, n *aig.Netlist, prop int, opt Options) *Result {
	return CheckCompiledCtx(ctx, n, prop, compileSpec(n, []int{prop}, opt), opt)
}

// CheckCompiledCtx is CheckCtx on a model the caller has already compiled:
// cm must be the output of pass.Compile(n, []int{prop}, ...) under
// opt.Passes, the compile CheckCtx would run itself. The job server
// compiles every submission once to key its verdict cache and hands that
// compile to the engine here. Results are in n's coordinates, and with
// ValidateWitness a counter-example is replayed on n as well as on cm.N.
func CheckCompiledCtx(ctx context.Context, n *aig.Netlist, prop int, cm *pass.Compiled, opt Options) *Result {
	if len(cm.Props) != 1 {
		panic(fmt.Sprintf("bmc: CheckCompiledCtx needs a model compiled for one property, got %d", len(cm.Props)))
	}
	c := modelOf(n, []int{prop}, cm, &opt)
	return c.finish(checkCompiled(ctx, c.n, c.props[0], opt), prop, opt)
}

// checkCompiled runs one property on the netlist it is given (already
// compiled by the caller) through the driver, with the Strategy the options
// select.
func checkCompiled(ctx context.Context, n *aig.Netlist, prop int, opt Options) *Result {
	e := newEngine(ctx, n, prop, opt)
	d := newDriver(e, []int{prop}, opt.StartDepth)
	d.run(ctx, e.strategyFor(d))
	return d.finish(d.res[0])
}
