package bmc

import (
	"context"

	"emmver/internal/obs"
	"emmver/internal/par"
	"emmver/internal/sat"
)

// laneOutcome is what one portfolio lane reports for a depth: a decisive
// verdict, an interrupted (unknown) solver call, or — for the forward lane
// only — a completed UNSAT counter-example check.
type laneOutcome struct {
	res     *Result
	unknown bool
}

// depthStepPortfolio races the depth-i checks on the engine's two solvers:
// the forward lane owns fs (forward termination, then the counter-example
// check) and the backward lane owns bs (backward termination). The first
// decisive verdict cancels the other lane via the solver interrupt hook.
//
// Verdict classes cannot conflict across lanes: a counter-example at depth
// i is shortest (earlier depths already passed), hence loop-free with the
// property holding at frames 0..i-1, so it satisfies both termination
// queries — a CE excludes forward and backward UNSAT at the same depth.
// The only genuine tie is forward and backward both proving, which
// par.First breaks toward the forward lane, matching sequential order.
func (e *engine) depthStepPortfolio(i int) *Result {
	prop := e.prop
	fwdLane := func(ctx context.Context) (laneOutcome, bool) {
		sp := e.obs.Span("bmc.lane", obs.F("lane", "forward"), obs.F("depth", i))
		defer sp.End()
		defer e.armSolver(e.fs, ctx)()
		switch e.forwardCheck(i) {
		case sat.Unsat:
			return laneOutcome{res: &Result{Kind: KindProof, Depth: i, ProofSide: "forward"}}, true
		case sat.Unknown:
			return laneOutcome{unknown: true}, false
		}
		switch e.ceCheck(prop, i) {
		case sat.Sat:
			// The model lives on fs, which this lane owns exclusively:
			// decode it before anything else can touch the solver.
			return laneOutcome{res: &Result{Kind: KindCE, Depth: i, Witness: e.extractWitness(i)}}, true
		case sat.Unknown:
			return laneOutcome{unknown: true}, false
		}
		return laneOutcome{}, false
	}
	bwdLane := func(ctx context.Context) (laneOutcome, bool) {
		sp := e.obs.Span("bmc.lane", obs.F("lane", "backward"), obs.F("depth", i))
		defer sp.End()
		defer e.armSolver(e.bs, ctx)()
		switch e.backwardCheck(prop, i) {
		case sat.Unsat:
			return laneOutcome{res: &Result{Kind: KindProof, Depth: i, ProofSide: "backward"}}, true
		case sat.Unknown:
			return laneOutcome{unknown: true}, false
		}
		return laneOutcome{}, false
	}

	win, outs := par.First(e.ctx, fwdLane, bwdLane)
	if win >= 0 {
		r := outs[win].res
		switch r.Kind {
		case KindProof:
			e.logf("depth %d: %s termination", i, r.ProofSide)
		case KindCE:
			e.logf("depth %d: counter-example", i)
			e.validateWitness(r.Witness, prop)
		}
		return r
	}
	if outs[0].unknown || outs[1].unknown {
		return &Result{Kind: KindTimeout, Depth: i}
	}
	// Both lanes ran to completion without a verdict — forward SAT, no CE,
	// backward SAT — exactly the sequential "no CE at this depth" outcome.
	e.logf("depth %d: no CE", i)
	return nil
}
