// The Session layer: incremental solver lifecycles. It owns what the
// solvers *do* between depths — solver construction and configuration,
// interrupt/deadline arming (including the portfolio lanes' re-arming),
// the between-depth inprocessing schedule, and statistics aggregation
// across however many solvers the Model built. The Model layer (model.go)
// decides what formula each solver holds; the Strategy layer (strategy.go)
// decides which queries to issue.

package bmc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"emmver/internal/core"
	"emmver/internal/obs"
	"emmver/internal/sat"
)

// newSolver creates one solver configured from the session-level options:
// restart strategy, clause-export filter, observability attachment, and
// the engine's interrupt budget (wall-clock deadline + run context).
func (e *engine) newSolver() *sat.Solver {
	s := sat.New()
	s.Restart = e.opt.Restart
	s.ShareLBD, s.ShareMaxLits = e.opt.ShareLBD, e.opt.ShareSize
	s.AttachObs(e.opt.Obs)
	e.installInterrupt(s)
	return s
}

// installInterrupt points s's interrupt hook at the engine-level budget:
// the wall-clock deadline and the run context.
func (e *engine) installInterrupt(s *sat.Solver) {
	if e.deadline.IsZero() && e.ctx.Done() == nil {
		s.Interrupt = nil
		return
	}
	s.Interrupt = e.timedOut
}

// armSolver retargets s's interrupt hook at a portfolio-lane context for
// the duration of one lane, returning the restore function.
func (e *engine) armSolver(s *sat.Solver, ctx context.Context) func() {
	s.Interrupt = func() bool { return ctx.Err() != nil || e.deadlinePassed() }
	return func() { e.installInterrupt(s) }
}

func (e *engine) deadlinePassed() bool {
	return !e.deadline.IsZero() && time.Now().After(e.deadline)
}

func (e *engine) timedOut() bool {
	return e.ctx.Err() != nil || e.deadlinePassed()
}

// solve wraps a SAT call with accounting.
func (e *engine) solve(s *sat.Solver, assumps ...sat.Lit) sat.Status {
	e.solveCalls.Add(1)
	return s.Solve(assumps...)
}

// lazySolver returns the dedicated CE-path solver when the lazy proof
// split is active, nil otherwise (cs then aliases fs).
func (e *engine) lazySolver() *sat.Solver {
	if e.cs != e.fs {
		return e.cs
	}
	return nil
}

// simplifyMinConflicts gates between-depth inprocessing on search effort: a
// pass only runs once the solvers have logged this many new conflicts since
// the previous pass, plus one conflict per simplifyClausesPerConfl clauses
// (a pass rebuilds the occurrence lists, so its cost grows with the
// formula while its payoff grows with the search). Vars rather than consts
// so the equivalence tests can force every pass on designs too small to
// clear the bar.
var (
	simplifyMinConflicts    int64 = 500
	simplifyClausesPerConfl       = int64(50)
)

// simplifyStep runs the between-depth inprocessing pass on both solvers
// after depth i failed to decide the property. The frame frontier, EMM
// interface signals, and every strash/memo-cached literal are frozen by the
// unroller and generator, so elimination only consumes depth-local
// auxiliaries that no later depth can mention. Skipped under NoSimplify and
// under PBA (clause rewriting would invalidate the proof log); the solver's
// ErrTracingActive guard backstops the latter. Also skipped until the
// solvers have accumulated simplifyMinConflicts of new search effort since
// the last pass: on easy per-depth instances the occurrence-list rebuild
// costs more than the search it would save.
func (e *engine) simplifyStep(i int) {
	if e.opt.NoSimplify || e.opt.PBA {
		return
	}
	confl := e.fs.Stats().Conflicts
	clauses := int64(e.fs.NumClauses())
	for _, o := range []*sat.Solver{e.bs, e.lazySolver()} {
		if o != nil {
			confl += o.Stats().Conflicts
			clauses += int64(o.NumClauses())
		}
	}
	need := simplifyMinConflicts
	if simplifyClausesPerConfl > 0 {
		need += clauses / simplifyClausesPerConfl
	}
	if confl-e.lastSimpConfl < need {
		return
	}
	e.lastSimpConfl = confl
	sp := e.obs.Span("bmc.simplify", obs.F("depth", i), obs.F("prop", e.prop))
	for _, s := range []*sat.Solver{e.fs, e.bs, e.lazySolver()} {
		if s == nil {
			continue
		}
		if err := s.Simplify(); err != nil && !errors.Is(err, sat.ErrTracingActive) {
			panic(fmt.Sprintf("bmc: inprocessing failed: %v", err))
		}
	}
	st := e.fs.Stats()
	sub, str, elim := st.SubsumedClauses, st.StrengthenedClauses, st.EliminatedVars
	for _, o := range []*sat.Solver{e.bs, e.lazySolver()} {
		if o != nil {
			ost := o.Stats()
			sub += ost.SubsumedClauses
			str += ost.StrengthenedClauses
			elim += ost.EliminatedVars
		}
	}
	sp.End(obs.F("subsumed", sub), obs.F("strengthened", str),
		obs.F("eliminated_vars", elim))
}

// snapshotStats materializes the engine's cumulative statistics.
func (e *engine) snapshotStats() Stats {
	s := e.stats
	s.SolveCalls = int(e.solveCalls.Load())
	s.Elapsed = time.Since(e.start)
	s.Clauses = e.fs.NumClauses()
	s.Vars = e.fs.NumVars()
	fst := e.fs.Stats()
	s.Conflicts = fst.Conflicts
	s.Restarts = fst.Restarts
	s.RestartsLuby = fst.RestartsLuby
	s.RestartsEMA = fst.RestartsEMA
	s.Simplifies = fst.Simplifies
	s.SubsumedClauses = fst.SubsumedClauses
	s.StrengthenedClauses = fst.StrengthenedClauses
	s.EliminatedVars = fst.EliminatedVars
	for _, o := range []*sat.Solver{e.bs, e.lazySolver()} {
		if o == nil {
			continue
		}
		s.Clauses += o.NumClauses()
		s.Vars += o.NumVars()
		ost := o.Stats()
		s.Conflicts += ost.Conflicts
		s.Restarts += ost.Restarts
		s.RestartsLuby += ost.RestartsLuby
		s.RestartsEMA += ost.RestartsEMA
		s.Simplifies += ost.Simplifies
		s.SubsumedClauses += ost.SubsumedClauses
		s.StrengthenedClauses += ost.StrengthenedClauses
		s.EliminatedVars += ost.EliminatedVars
	}
	// Under LazyEMM the EMM tally reports the CE path's generator (cg ==
	// fg unless the proof split is active): that is the constraint set the
	// lazy mode reduces, and the figure the A/B harness compares against
	// an eager run.
	if e.cg != nil {
		s.EMM = e.cg.Sizes()
	}
	s.LazyRounds = e.lazyRounds
	s.LazySpurious = e.lazySpurious
	s.LFPPairs = e.lfpPairs.Load()
	s.LFPRounds = e.lfpRounds.Load()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.PeakHeapMB = float64(ms.HeapAlloc) / (1 << 20)
	return s
}

// depthMark snapshots the cumulative counters at the end of a depth, so the
// next depth's DepthStat can be computed as a delta.
type depthMark struct {
	clauses, vars, emmClauses, strashHits, memoHits, solves int
	props, confl, decs                                      int64
	at                                                      time.Time
}

// depthCumulative reads the counters DepthStat deltas are computed from.
func (e *engine) depthCumulative() depthMark {
	m := depthMark{at: time.Now()}
	m.clauses = e.fs.NumClauses()
	m.vars = e.fs.NumVars()
	m.strashHits = e.fu.StrashHits
	fst := e.fs.Stats()
	m.props, m.confl, m.decs = fst.Propagations, fst.Conflicts, fst.Decisions
	if e.bs != nil {
		m.clauses += e.bs.NumClauses()
		m.vars += e.bs.NumVars()
		m.strashHits += e.bu.StrashHits
		bst := e.bs.Stats()
		m.props += bst.Propagations
		m.confl += bst.Conflicts
		m.decs += bst.Decisions
	}
	gens := []*core.Generator{e.fg, e.bg}
	if e.cg != e.fg {
		gens = append(gens, e.cg)
	}
	for _, g := range gens {
		if g != nil {
			sz := g.Sizes()
			m.emmClauses += sz.Clauses() + sz.InitClauses
			m.memoHits += sz.CompMemoHits
		}
	}
	if e.cs != e.fs {
		m.clauses += e.cs.NumClauses()
		m.vars += e.cs.NumVars()
		m.strashHits += e.cu.StrashHits
		cst := e.cs.Stats()
		m.props += cst.Propagations
		m.confl += cst.Conflicts
		m.decs += cst.Decisions
	}
	m.solves = int(e.solveCalls.Load())
	return m
}

// collectDepthStat appends the delta since the previous depth.
func (e *engine) collectDepthStat(i int) {
	cur := e.depthCumulative()
	prev := e.mark
	if prev.at.IsZero() {
		prev.at = e.start
	}
	e.depthStats = append(e.depthStats, DepthStat{
		Depth:        i,
		Clauses:      cur.clauses - prev.clauses,
		Vars:         cur.vars - prev.vars,
		EMMClauses:   cur.emmClauses - prev.emmClauses,
		StrashHits:   cur.strashHits - prev.strashHits,
		CompMemoHits: cur.memoHits - prev.memoHits,
		Propagations: cur.props - prev.props,
		Conflicts:    cur.confl - prev.confl,
		Decisions:    cur.decs - prev.decs,
		Solves:       cur.solves - prev.solves,
		Elapsed:      cur.at.Sub(prev.at),
	})
	e.mark = cur
}
