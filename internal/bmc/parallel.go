package bmc

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"emmver/internal/aig"
	"emmver/internal/obs"
	"emmver/internal/par"
	"emmver/internal/sat"
)

// CheckManyParallel verifies many reachability properties of one design
// concurrently: a pool of jobs workers (jobs <= 0 selects NumCPU) pulls
// properties off a shared queue, and each worker owns a private
// unrolling/solver engine against the shared read-only netlist. Workers
// cooperate through the forward-termination oracle: the forward check is
// property-independent and its UNSAT answer is upward-closed in depth, so
// the first worker to hit UNSAT publishes that depth and every other worker
// reaching it resolves its property instantly as a forward proof — the
// paper's "10 induction proofs in < 1 s" effect, now paid for once.
//
// Outcomes are deterministic: every per-property verdict (Kind, Depth,
// ProofSide) equals what the sequential CheckMany computes (under
// KInduction: what Check computes, since each property runs k-induction),
// because SAT answers are semantic and at most one verdict class can fire
// per depth.
// Only timeout placement and witness input values (which always replay) may
// vary between runs.
func CheckManyParallel(n *aig.Netlist, props []int, opt Options, jobs int) *ManyResult {
	return CheckManyParallelCtx(context.Background(), n, props, opt, jobs)
}

// CheckManyParallelCtx is CheckManyParallel under a cancellation context.
// Options.Timeout is converted into a deadline on the shared context so the
// whole pool stops at the same wall-clock instant.
func CheckManyParallelCtx(ctx context.Context, n *aig.Netlist, props []int, opt Options, jobs int) *ManyResult {
	start := time.Now()
	out := &ManyResult{Results: make([]*Result, len(props))}
	if len(props) == 0 {
		return out
	}
	ctx, cancel := poolCtx(ctx, &opt)
	defer cancel()
	// Compile once before the pool spawns: every worker engine unrolls
	// the same reduced netlist, and results are back-mapped after the
	// fan-in below.
	c := compileModel(n, props, &opt)
	n, props = c.n, c.props
	jobs = par.Jobs(jobs)
	if len(props) == 1 && jobs > 1 && opt.Proofs && !opt.KInduction {
		// A single property leaves the property pool idle; race the
		// forward and backward termination checks in separate lanes
		// instead (only meaningful with proofs; k-induction fixes its own
		// check order).
		opt.Portfolio = true
		out.Results[0] = checkCompiled(ctx, n, props[0], opt)
		out.Stats = out.Results[0].Stats
		out.finish(c, opt)
		return out
	}
	jobs = min(jobs, len(props))
	if jobs > 1 {
		opt.Log = par.SyncWriter(opt.Log)
	}

	// Reusing one engine per worker across properties is a conservative
	// extension only when the design asserts no environment constraints:
	// everything else the engine adds (Tseitin definitions, EMM clauses,
	// loop-free-path structure) is total and property-independent, whereas
	// asserted constraint units would leak between properties if the
	// per-property runs were meant to differ. No design in this repo hits
	// the fallback, but correctness must not depend on that.
	reuse := len(n.Constraints) == 0

	engines := make([]*engine, jobs)
	workerStats := make([]Stats, jobs)
	var fwdUnsat atomic.Int64
	fwdUnsat.Store(math.MaxInt64)

	par.ForEachObs(ctx, opt.Obs, "bmc.prop", jobs, len(props), func(ctx context.Context, w, pi int) {
		e := engines[w]
		if e == nil || !reuse {
			if e != nil {
				workerStats[w].Add(e.snapshotStats())
			}
			// Each worker's engine carries a derived observer tagged with
			// the worker index, so every span it emits (depth steps, solver
			// calls) is attributable to its worker goroutine in the journal.
			wopt := opt
			wopt.Obs = opt.Obs.With(obs.F("worker", w))
			e = newEngine(ctx, n, props[pi], wopt)
			engines[w] = e
		}
		// One driver run per property on the worker's engine: k-induction
		// under KInduction, as Check runs it, and otherwise the bmc order
		// consulting the pool-shared forward-termination oracle. The
		// result carries this property's wall time; the solver-level
		// counters are aggregated per worker instead (ManyResult.Stats).
		t0 := time.Now()
		e.prop = props[pi]
		d := newDriver(e, props[pi:pi+1], 0)
		var strat Strategy = &bmcStrategy{e: e, d: d, fwd: &fwdUnsat}
		if opt.KInduction && opt.Proofs {
			strat = &kindStrategy{e}
		}
		d.run(ctx, strat)
		out.Results[pi] = d.res[0]
		out.Results[pi].Stats.Elapsed = time.Since(t0)
	})

	for w, e := range engines {
		if e != nil {
			workerStats[w].Add(e.snapshotStats())
		}
		out.Stats.Add(workerStats[w])
	}
	out.Stats.Elapsed = time.Since(start)
	for pi, p := range props {
		if out.Results[pi] == nil {
			// The run was cancelled before this property was dispensed.
			out.Results[pi] = &Result{Kind: KindTimeout, Prop: p, Depth: 0}
		}
	}
	out.finish(c, opt)
	return out
}

// poolCtx derives the property pool's run context: cancellable, and
// carrying opt.Timeout as a deadline (cleared from opt) so every engine of
// the pool stops at the same wall-clock instant.
func poolCtx(ctx context.Context, opt *Options) (context.Context, context.CancelFunc) {
	if t := opt.Timeout; t > 0 {
		opt.Timeout = 0
		return context.WithTimeout(ctx, t)
	}
	return context.WithCancel(ctx)
}

// oracleForwardCheck answers the forward termination check at depth i,
// short-circuiting through the shared oracle and the per-engine SAT memo.
// A worker can only still be running at depth i if its depths < i were all
// SAT, so the first published UNSAT depth is the true first-UNSAT depth:
// any worker reaching it may resolve without a solver call, and depths
// below it are known SAT and answered without one too.
func (e *engine) oracleForwardCheck(i int, fwdUnsat *atomic.Int64) sat.Status {
	if fwdUnsat != nil {
		if u := fwdUnsat.Load(); u != math.MaxInt64 {
			if int64(i) >= u {
				return sat.Unsat
			}
			return sat.Sat
		}
	}
	if i <= e.fwdSatDepth {
		return sat.Sat
	}
	st := e.forwardCheck(i)
	switch st {
	case sat.Sat:
		e.fwdSatDepth = i
	case sat.Unsat:
		if fwdUnsat != nil {
			casMin(fwdUnsat, int64(i))
		}
	}
	return st
}

// casMin lowers a to v unless a already holds something smaller.
func casMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
