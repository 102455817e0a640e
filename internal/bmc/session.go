// The Session layer: incremental solver lifecycles. It owns what the
// solvers *do* between depths — solver construction and configuration,
// interrupt/deadline arming (including the portfolio lanes' re-arming),
// and statistics aggregation across the Model's two windows. The Model
// layer (model.go) decides what formula each solver holds; the Strategy
// layer (strategy.go) decides which queries to issue.

package bmc

import (
	"context"
	"runtime"
	"time"

	"emmver/internal/sat"
)

// newSolver creates one solver configured from the session-level options:
// observability attachment and the engine's interrupt budget (wall-clock
// deadline + run context).
func (e *engine) newSolver() *sat.Solver {
	s := sat.New()
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

// snapshotStats materializes the engine's cumulative statistics, summed
// over its solvers.
func (e *engine) snapshotStats() Stats {
	s := Stats{SolveCalls: int(e.solveCalls.Load()), Elapsed: time.Since(e.start)}
	for _, w := range e.windows() {
		s.Clauses += w.s.NumClauses()
		s.Vars += w.s.NumVars()
		st := w.s.Stats()
		s.Conflicts += st.Conflicts
		s.Restarts += st.Restarts
	}
	// The EMM tally reports the forward window's generator: it hosts the
	// counter-example queries, and in a lazy run its tally counts the
	// axioms the refinement actually instantiated.
	if e.fg != nil {
		s.EMM = e.fg.Sizes()
	}
	s.LazyRounds = e.lazyRounds.Load()
	s.LazySpurious = e.lazySpurious.Load()
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
	m := depthMark{at: time.Now(), solves: int(e.solveCalls.Load())}
	for _, w := range e.windows() {
		m.clauses += w.s.NumClauses()
		m.vars += w.s.NumVars()
		m.strashHits += w.u.StrashHits
		st := w.s.Stats()
		m.props += st.Propagations
		m.confl += st.Conflicts
		m.decs += st.Decisions
		if w.g != nil {
			sz := w.g.Sizes()
			m.emmClauses += sz.Clauses() + sz.InitClauses
			m.memoHits += sz.CompMemoHits
		}
	}
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
