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

// ManyResult reports the per-property outcomes of a CheckManyParallel run
// plus the shared statistics, mirroring how the Industry I case study
// reports "206 witnesses in 400s, 10 induction proofs in <1s".
type ManyResult struct {
	Results []*Result // one per property, indexed like props
	Stats   Stats
	// MaxWitnessDepth is the deepest counter-example found.
	MaxWitnessDepth int
	// DepthStats holds the per-depth deltas, summed by depth over the
	// property groups' engines, so each column still sums to the run total.
	DepthStats []DepthStat
}

// Counts tallies outcomes by kind.
func (m *ManyResult) Counts() map[Kind]int {
	out := make(map[Kind]int)
	for _, r := range m.Results {
		out[r.Kind]++
	}
	return out
}

// CheckManyParallel verifies many reachability properties of one design.
// The static compile pipeline runs once for the whole property set. The
// compiled properties are then split round-robin into min(jobs, len(props))
// groups (jobs <= 0 selects NumCPU), and a pool of workers runs one group
// at a time. Each group shares one engine — one incremental unrolling and
// EMM constraint set — across all of its properties, the paper's Industry I
// shared unrolling: at each depth the group runs, per open property, the
// counter-example check; an engine with termination checks also runs the
// property-independent forward termination check once per depth (UNSAT
// proves every open property at once) and a per-property backward
// induction check.
//
// The groups cooperate through the forward-termination oracle: the forward
// check is property-independent and its UNSAT answer is upward-closed in
// depth, so the first group to hit UNSAT publishes that depth and every
// other group reaching it resolves its open properties without a solver
// call. jobs=1 is one group holding every property; with at least as many
// workers as properties each group holds one. A single property with
// termination checks (bmc1, bmc3) and more than one worker races the
// forward and backward termination checks in two lanes instead.
//
// Outcomes are deterministic: every per-property verdict (Kind, Depth,
// ProofSide) is the same at any jobs, because SAT answers are semantic and
// at most one verdict class can fire per depth. Only timeout placement,
// witness input values (which always replay) and the solver counters may
// vary between runs.
func CheckManyParallel(n *aig.Netlist, props []int, opt Options, jobs int) *ManyResult {
	return CheckManyParallelCtx(context.Background(), n, props, opt, jobs)
}

// CheckManyParallelCtx is CheckManyParallel under a cancellation context.
// Options.Timeout is converted into a deadline on the shared context so
// every group stops at the same wall-clock instant; a depth that times out
// ends its group, and every property still open reports KindTimeout there.
func CheckManyParallelCtx(ctx context.Context, n *aig.Netlist, props []int, opt Options, jobs int) *ManyResult {
	start := time.Now()
	out := &ManyResult{Results: make([]*Result, len(props))}
	if len(props) == 0 {
		return out
	}
	ctx, cancel := poolCtx(ctx, &opt)
	defer cancel()
	c := compileModel(n, props, &opt)
	n, props = c.n, c.props
	jobs = par.Jobs(jobs)
	if len(props) == 1 && jobs > 1 && modeOf(opt.Engine).proofs {
		// A single property leaves the pool idle; race the forward and
		// backward termination checks in separate lanes instead (only
		// meaningful with proofs).
		opt.portfolio = true
		r := checkCompiled(ctx, n, props[0], opt)
		out.Results[0], out.Stats, out.DepthStats = r, r.Stats, r.DepthStats
		out.finish(c, opt)
		return out
	}
	groups := min(jobs, len(props))
	if groups > 1 {
		opt.Log = par.SyncWriter(opt.Log)
	}

	// Per-group outcomes are indexed by group, not by worker: a worker
	// that finishes early may take a second group.
	stats := make([]Stats, groups)
	depthStats := make([][]DepthStat, groups)
	var fwdUnsat atomic.Int64
	fwdUnsat.Store(math.MaxInt64)

	par.ForEachObs(ctx, opt.Obs, "bmc.prop", groups, groups, func(ctx context.Context, w, g int) {
		var gprops []int
		for pi := g; pi < len(props); pi += groups {
			gprops = append(gprops, props[pi])
		}
		// Each group's engine carries a derived observer tagged with the
		// worker index, so every span it emits (depth steps, solver calls)
		// is attributable to its worker goroutine in the journal.
		gopt := opt
		gopt.Obs = opt.Obs.With(obs.F("worker", w))
		e := newEngine(ctx, n, gprops[0], gopt)
		d := newDriver(e, gprops, 0)
		d.run(ctx, &bmcStrategy{e: e, d: d, fwd: &fwdUnsat})
		for j, r := range d.res {
			out.Results[g+j*groups] = r
		}
		stats[g], depthStats[g] = e.snapshotStats(), e.depthStats
	})

	for g := range stats {
		out.Stats.Add(stats[g])
		out.DepthStats = addDepthStats(out.DepthStats, depthStats[g])
	}
	out.Stats.Elapsed = time.Since(start)
	for pi, p := range props {
		if out.Results[pi] == nil {
			// The run was cancelled before this property's group started.
			out.Results[pi] = &Result{Kind: KindTimeout, Prop: p, Depth: 0}
		}
	}
	out.finish(c, opt)
	return out
}

// addDepthStats adds src's per-depth deltas into dst by depth, extending
// dst when src ran deeper.
func addDepthStats(dst, src []DepthStat) []DepthStat {
	for _, s := range src {
		for len(dst) <= s.Depth {
			dst = append(dst, DepthStat{Depth: len(dst)})
		}
		d := &dst[s.Depth]
		d.Clauses += s.Clauses
		d.Vars += s.Vars
		d.EMMClauses += s.EMMClauses
		d.StrashHits += s.StrashHits
		d.CompMemoHits += s.CompMemoHits
		d.Propagations += s.Propagations
		d.Conflicts += s.Conflicts
		d.Decisions += s.Decisions
		d.Solves += s.Solves
		d.Elapsed += s.Elapsed
	}
	return dst
}

// finish records the deepest counter-example and translates every result
// back to source coordinates.
func (m *ManyResult) finish(c compiled, opt Options) {
	for pi, r := range m.Results {
		if r.Kind == KindCE && r.Depth > m.MaxWitnessDepth {
			m.MaxWitnessDepth = r.Depth
		}
		m.Results[pi] = c.finish(r, c.srcProps[pi], opt)
	}
}

// poolCtx derives the run context of the property groups: cancellable,
// and carrying opt.Timeout as a deadline (cleared from opt) so every group
// stops at the same wall-clock instant.
func poolCtx(ctx context.Context, opt *Options) (context.Context, context.CancelFunc) {
	if t := opt.Timeout; t > 0 {
		opt.Timeout = 0
		return context.WithTimeout(ctx, t)
	}
	return context.WithCancel(ctx)
}

// oracleForwardCheck answers the forward termination check at depth i,
// short-circuiting through the groups' shared oracle when one is given.
// A group can only still be running at depth i if its depths < i were all
// SAT, so the first published UNSAT depth is the true first-UNSAT depth:
// any group reaching it may resolve without a solver call, and depths
// below it are known SAT and answered without one too.
func (e *engine) oracleForwardCheck(i int, fwdUnsat *atomic.Int64) sat.Status {
	if fwdUnsat != nil {
		if u := fwdUnsat.Load(); u != math.MaxInt64 {
			e.obsFwdOracle.Inc()
			if int64(i) >= u {
				return sat.Unsat
			}
			return sat.Sat
		}
	}
	st := e.forwardCheck(i)
	if st == sat.Unsat && fwdUnsat != nil {
		casMin(fwdUnsat, int64(i))
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
