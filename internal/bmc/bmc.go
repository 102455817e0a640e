// Package bmc implements the paper's SAT-based model checking algorithms
// over aig netlists:
//
//   - BMC-1 (Fig. 1): plain BMC with forward/backward termination checks
//     (SAT-based induction proofs) and optional proof-based abstraction.
//     Used on memory-free models — in particular the Explicit Modeling
//     baseline produced by package expmem.
//   - BMC-2 (Fig. 2): BMC with EMM constraints, falsification only.
//   - BMC-3 (Fig. 3): BMC with EMM constraints, termination proofs (using
//     the precise arbitrary-initial-state modeling of §4.2) and PBA.
//   - k-induction ("kind"): BMC-3's checks reordered into temporal
//     induction, with the induction step strengthened by write-free-init
//     retention — the first engine able to prove properties whose
//     invariant depends on declared memory contents (engine_kind.go).
//
// The engine is layered (one struct, three responsibilities in three
// files): the Model (model.go) owns the unrolled time frames, EMM
// constraints, and witness extraction; the Session (session.go) owns the
// incremental solvers' lifecycles — construction, interrupts,
// inprocessing, statistics; the Strategy (strategy.go) is the per-depth
// decision procedure. All engines share the Model and Session and differ
// only in their Strategy plus Options-selected Model strengthenings;
// constructors with the paper's names pick the right combination.
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
	"emmver/internal/pba"
	"emmver/internal/sat"
	"emmver/internal/unroll"
)

// Options configures a BMC run.
type Options struct {
	// MaxDepth is the bound n of Figs. 1–3.
	MaxDepth int
	// UseEMM adds the memory-modeling constraints (BMC-2/BMC-3). Without
	// it, memory read data stays entirely unconstrained — the "abstract
	// out the memory completely" configuration discussed in the Industry
	// II case study.
	UseEMM bool
	// Proofs enables the forward/backward termination checks.
	Proofs bool
	// PBA enables proof-tracing and latch-reason collection on the
	// counter-example checks.
	//
	// Proof tracing changes more than the solver: while cores are being
	// harvested, the engine also turns off structural hashing in the
	// unrollers, init-literal folding, comparator memoization, and the
	// between-depth inprocessing pass. All four optimizations share (or
	// rewrite) clauses across clause tags, and PBA attributes relevance by
	// tag — a shared clause would implicate only its first creator, so
	// the abstraction could silently drop latches or EMM events the proof
	// needs. This means a PBA run (BMC-3's phase 1) has deliberately
	// different performance characteristics from a plain BMC-2 run at the
	// same options; TestPBADisablesClauseSharing pins the coupling.
	PBA bool
	// StabilityDepth is the number of depths the latch-reason set must
	// stay unchanged before the abstraction is considered stable
	// (the paper uses 10 in Table 2).
	StabilityDepth int
	// StopAtStable ends the run (with KindStable) once the latch-reason
	// set has been stable for StabilityDepth depths.
	StopAtStable bool
	// Abs runs the check on a reduced model: latches in Abs.FreeLatches
	// become pseudo-primary inputs and disabled memories/ports get no EMM
	// constraints (§4.3).
	Abs *pba.Abstraction
	// Timeout bounds the wall-clock time of the whole run (0 = none).
	Timeout time.Duration
	// ValidateWitness replays counter-examples on the concrete-memory
	// simulator and fails loudly on divergence. Only meaningful on
	// unabstracted models.
	ValidateWitness bool
	// DisableEq6 drops the arbitrary-initial-state consistency
	// constraints (§4.2, eq. 6), demonstrating why proofs need them.
	DisableEq6 bool
	// DisableExclusivity switches EMM to the direct eq. 1 encoding
	// without the exclusive valid-read chains — the ablation for the
	// paper's claim that the chains speed up the SAT solver.
	DisableExclusivity bool
	// Portfolio runs the depth-level checks as a two-lane race when Proofs
	// is on: one goroutine owns the forward solver (forward termination,
	// then the counter-example check), the other owns the backward solver
	// (backward termination). The first decisive answer interrupts the
	// other lane. Verdicts are unchanged, but when forward and backward
	// termination both prove at the same depth the reported ProofSide may
	// differ from the sequential run's.
	Portfolio bool
	// CollectDepthStats records a DepthStat delta for every processed
	// depth in Result.DepthStats (the -stats CLI flag).
	CollectDepthStats bool
	// DisableStrash turns off structural hashing in the unrollers, and
	// DisableEMMMemo turns off EMM comparator memoization. Both exist for
	// A/B measurement and the equivalence tests; the optimizations are on
	// by default.
	DisableStrash  bool
	DisableEMMMemo bool
	// Restart selects the solvers' restart strategy: sat.RestartEMA (the
	// adaptive glue-driven default) or sat.RestartLuby (the classic
	// schedule).
	Restart sat.RestartMode
	// NoSimplify disables the between-depth inprocessing pass
	// (sat.Solver.Simplify: subsumption, clause strengthening, bounded
	// variable elimination over non-frozen auxiliaries). Inprocessing is
	// also skipped automatically whenever PBA proof tracing is active —
	// clause rewriting would invalidate resolution chains — with
	// sat.ErrTracingActive as the solver-level second guard.
	NoSimplify bool
	// PureLatchLFP uses the paper's literal loop-free-path constraint
	// (latch states pairwise distinct). The default strengthens state
	// equality with "and no write fired in between", which keeps the
	// forward-termination proof sound when memory contents evolve; see
	// EXPERIMENTS.md for a design where the literal check claims a bogus
	// proof.
	PureLatchLFP bool
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
	// it — per-depth lane racing stays opt-in via Portfolio.
	Jobs int
	// KInduction selects the k-induction strategy (temporal induction,
	// spec engine "kind"): at each depth k the base case (the plain
	// counter-example check) runs first, then the forward recurrence-
	// diameter check, then the induction step — the backward termination
	// check with its simple-path constraint, strengthened by retaining
	// declared initial contents for write-port-free memories
	// (core.Generator.RetainWriteFreeInit; sound because a memory nothing
	// ever writes keeps its declared contents in every reachable state).
	// The strengthening is what lets kind close proofs that BMC-3's
	// arbitrary-initial-state induction cannot reach at any bounded depth.
	// Requires Proofs and UseEMM; spec.Options sets all three. Every entry
	// point runs this check order: on a multi-property group, each open
	// property's base case, then one forward check, then each open
	// property's induction step.
	KInduction bool
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

	// eagerEMM keeps a run that would be lazy (see newWindow) on the eager
	// EMM encoding: the reference side of the package's lazy-vs-eager
	// differential tests.
	eagerEMM bool
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
	// KindStable: the run stopped because the PBA latch-reason set became
	// stable (StopAtStable).
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
	// Restarts, split by trigger: Luby budget expiry vs the adaptive glue
	// EMA crossing its threshold (RestartsLuby + RestartsEMA = Restarts).
	Restarts     int64
	RestartsLuby int64
	RestartsEMA  int64
	// Between-depth inprocessing work (zero under PBA or NoSimplify).
	Simplifies          int64
	SubsumedClauses     int64
	StrengthenedClauses int64
	EliminatedVars      int64
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
	s.RestartsLuby += o.RestartsLuby
	s.RestartsEMA += o.RestartsEMA
	s.Simplifies += o.Simplifies
	s.SubsumedClauses += o.SubsumedClauses
	s.StrengthenedClauses += o.StrengthenedClauses
	s.EliminatedVars += o.EliminatedVars
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
// recorded when Options.CollectDepthStats is on. Each field is the increase
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
	// Tracker carries the accumulated latch reasons when PBA was on.
	Tracker *pba.Tracker
	Stats   Stats
	// DepthStats holds per-depth deltas (Options.CollectDepthStats only).
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

// BMC1 returns options for the plain algorithm of Fig. 1.
func BMC1(maxDepth int) Options {
	return Options{MaxDepth: maxDepth, Proofs: true}
}

// BMC2 returns options for the EMM falsification algorithm of Fig. 2.
func BMC2(maxDepth int) Options {
	return Options{MaxDepth: maxDepth, UseEMM: true}
}

// BMC3 returns options for the EMM + proofs + PBA algorithm of Fig. 3.
func BMC3(maxDepth int) Options {
	return Options{MaxDepth: maxDepth, UseEMM: true, Proofs: true, PBA: true, StabilityDepth: 10}
}

// KInd returns options for the EMM k-induction engine: BMC-3's checks
// reordered into temporal induction (base case first), with the induction
// step strengthened by write-free-init retention. See Options.KInduction.
func KInd(maxDepth int) Options {
	return Options{MaxDepth: maxDepth, UseEMM: true, Proofs: true, KInduction: true}
}

type engine struct {
	n    *aig.Netlist
	opt  Options
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
	// lastSimpConfl is the cumulative conflict count (both solvers) at the
	// last inprocessing pass; simplifyStep skips until enough new search
	// effort has accumulated to pay for the occurrence-list rebuild.
	lastSimpConfl int64

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
}

func newEngine(ctx context.Context, n *aig.Netlist, prop int, opt Options) *engine {
	e := &engine{n: n, opt: opt, prop: prop, ctx: ctx, start: time.Now(),
		bwdSatProp: -1, bwdSatDepth: -1}
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
	}
	// Model construction (model.go): each window is an unrolling plus its
	// EMM generator over a fresh session solver (session.go).
	e.fs, e.fu, e.fg = e.newWindow(unroll.Initialized)
	if opt.PBA {
		e.tracker = pba.NewTracker()
	}
	if opt.Proofs {
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
	if e.opt.ValidateWitness && e.opt.Abs == nil {
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
	c := compileModel(n, []int{prop}, &opt)
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
