// The Strategy layer: the decision procedure that drives the per-depth
// checks over a prepared Model (model.go) and Session (session.go), and the
// one driver loop that calls it. Each strategy decides which solver queries
// to issue at depth k and how to interpret their answers; the driver owns
// frame extension, warm-start gating, verdict bookkeeping and
// observability for every entry point. A strategy is exactly the
// paper-visible difference between engines.

package bmc

import (
	"context"
	"sync/atomic"
	"time"

	"emmver/internal/obs"
	"emmver/internal/sat"
)

// Strategy is one verification decision procedure. The driver calls Step
// once per depth, in increasing order, after the Model has extended every
// window's unrolling and EMM constraints to k.
type Strategy interface {
	// Name labels the strategy in per-depth trace spans and logs.
	Name() string
	// Step runs the depth-k checks and returns (result, true) when the
	// result settles every property still open, or (nil, false) to deepen.
	// Cancellation is polled through the Session's solver interrupt hooks;
	// ctx is the run context those hooks watch.
	Step(ctx context.Context, k int) (*Result, bool)
}

// driver is the package's one loop over depth (Figs. 1–3). It advances
// one engine and keeps the verdict bookkeeping of the properties the run
// checks.
type driver struct {
	e     *engine
	props []int
	res   []*Result // per-property verdicts, nil while open
	open  int
	from  int // warm-start frontier (Options.StartDepth where honoured)
}

func newDriver(e *engine, props []int, from int) *driver {
	return &driver{e: e, props: props, res: make([]*Result, len(props)), open: len(props), from: from}
}

// run drives strat over depths 0..MaxDepth until every property is
// resolved, the bound is exhausted, or the run times out.
func (d *driver) run(ctx context.Context, strat Strategy) {
	e := d.e
	for k := 0; k <= e.opt.MaxDepth && d.open > 0; k++ {
		if e.timedOut() {
			d.resolveOpen(&Result{Kind: KindTimeout, Depth: max(k-1, 0)})
			return
		}
		sp := e.obs.Span("bmc.depth", obs.F("depth", k), obs.F("prop", e.prop),
			obs.F("strategy", strat.Name()))
		e.prepareDepth(k)
		// Below the warm-start frontier only the (cumulative) unrolling and
		// EMM constraints are built; the depth's checks are already answered
		// by the caller's cached shallower verdict.
		if k >= d.from {
			if r, _ := strat.Step(ctx, k); r != nil {
				d.resolveOpen(r)
			}
		}
		e.publishObs(k)
		e.collectDepthStat(k)
		sp.End(obs.F("emm_clauses", e.emmClausesCum()),
			obs.F("clauses", e.fs.NumClauses()),
			obs.F("unresolved", d.open))
	}
	d.resolveOpen(&Result{Kind: KindNoCE, Depth: e.opt.MaxDepth})
}

// resolve records property pi's verdict, stamped with the time the run
// took to decide it.
func (d *driver) resolve(pi int, r *Result) {
	r.Prop = d.props[pi]
	r.Stats.Elapsed = time.Since(d.e.start)
	d.res[pi] = r
	d.open--
	d.e.obsResolved(r.Kind)
}

// resolveOpen settles every property still open with a copy of r.
func (d *driver) resolveOpen(r *Result) {
	for pi, done := range d.res {
		if done == nil {
			rr := *r
			d.resolve(pi, &rr)
		}
	}
}

// finish attaches the run's statistics, PBA tracker and per-depth table
// to r.
func (d *driver) finish(r *Result) *Result {
	e := d.e
	r.Stats = e.snapshotStats()
	r.Tracker = e.tracker
	r.DepthStats = e.depthStats
	return r
}

// strategyFor selects the Strategy the options ask for on a
// single-property run; Options-level callers get the closest sequential
// flow.
func (e *engine) strategyFor(d *driver) Strategy {
	bmc := bmcStrategy{e: e, d: d}
	switch {
	case e.mode.proofs && e.opt.portfolio:
		return &portfolioStrategy{e}
	case e.opt.pba:
		return &pbaStrategy{bmc}
	default:
		return &bmc
	}
}

// bmcStrategy is the paper's per-depth flow, shared by BMC-1, BMC-2, BMC-3,
// PBA phase 1 and each property group of CheckManyParallel: forward
// termination once per depth (property-independent, so UNSAT proves every
// open property), then for each open property backward termination and
// the counter-example query.
type bmcStrategy struct {
	e   *engine
	d   *driver
	fwd *atomic.Int64 // the property groups' forward oracle; nil otherwise
}

func (s *bmcStrategy) Name() string { return "bmc" }

func (s *bmcStrategy) Step(_ context.Context, k int) (*Result, bool) {
	e, d := s.e, s.d
	if e.mode.proofs {
		switch e.oracleForwardCheck(k, s.fwd) {
		case sat.Unsat:
			e.logf("depth %d: forward termination", k)
			return &Result{Kind: KindProof, Depth: k, ProofSide: "forward"}, true
		case sat.Unknown:
			return &Result{Kind: KindTimeout, Depth: k}, true
		}
	}
	for pi, p := range d.props {
		if d.res[pi] != nil {
			continue
		}
		r := s.check(p, k)
		if r != nil && r.Kind == KindTimeout {
			// A depth that times out ends the run for every open property.
			return r, true
		}
		if r != nil {
			d.resolve(pi, r)
		}
	}
	if d.open == 0 {
		return nil, true
	}
	e.logf("depth %d: no CE", k)
	return nil, false
}

// check runs property p's depth-k checks after the forward check.
func (s *bmcStrategy) check(p, k int) *Result {
	e := s.e
	if e.timedOut() {
		return &Result{Kind: KindTimeout, Depth: k}
	}
	if e.mode.proofs {
		switch e.backwardCheck(p, k) {
		case sat.Unsat:
			e.logf("depth %d: prop %d: backward termination", k, p)
			return &Result{Kind: KindProof, Depth: k, ProofSide: "backward"}
		case sat.Unknown:
			return &Result{Kind: KindTimeout, Depth: k}
		}
	}
	return e.solveCE(p, k)
}

// pbaStrategy is PBA phase 1: the bmc check order, feeding each undecided
// depth's counter-example UNSAT core — the last answer of the forward
// solver — to the latch-reason tracker.
type pbaStrategy struct{ bmcStrategy }

func (s *pbaStrategy) Step(ctx context.Context, k int) (*Result, bool) {
	if r, done := s.bmcStrategy.Step(ctx, k); done {
		return r, done
	}
	e := s.e
	e.obsPBAUpdate(k)
	e.logf("depth %d: |LR|=%d (stable %d)", k, e.tracker.Size(), e.tracker.StableFor(k))
	if e.opt.stopAtStable && e.tracker.StableFor(k) >= e.opt.StabilityDepth {
		return &Result{Kind: KindStable, Depth: k}, true
	}
	return nil, false
}

// solveCE answers the counter-example query on the forward window,
// replaying a witness it finds: a decisive Result (a counter-example or a
// timeout) or nil when no counter-example exists at k.
func (e *engine) solveCE(prop, k int) *Result {
	switch e.ceCheck(prop, k) {
	case sat.Sat:
		w := e.extractWitness(k)
		e.logf("depth %d: prop %d: counter-example", k, prop)
		e.validateWitness(w, prop)
		return &Result{Kind: KindCE, Depth: k, Witness: w}
	case sat.Unknown:
		return &Result{Kind: KindTimeout, Depth: k}
	}
	return nil
}

// portfolioStrategy races the forward and backward windows as two lanes
// per depth (portfolio.go).
type portfolioStrategy struct{ e *engine }

func (s *portfolioStrategy) Name() string { return "portfolio" }

func (s *portfolioStrategy) Step(_ context.Context, k int) (*Result, bool) {
	r := s.e.depthStepPortfolio(k)
	return r, r != nil
}
