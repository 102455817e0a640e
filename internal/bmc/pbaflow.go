package bmc

import (
	"context"
	"time"

	"emmver/internal/aig"
	"emmver/internal/obs"
	"emmver/internal/pba"
)

// PBAResult is the outcome of the two-phase prove-with-abstraction flow
// used by Table 2: first collect a stable latch-reason set on the concrete
// model, then prove the property on the reduced model.
type PBAResult struct {
	// Phase1 is the concrete-model run that produced the abstraction (or
	// found a counter-example / timed out).
	Phase1 *Result
	// Abs is the reduced model (nil if phase 1 did not reach stability).
	Abs *pba.Abstraction
	// AbstractionTime is the wall-clock cost of phase 1.
	AbstractionTime time.Duration
	// Proof is the reduced-model run (nil if skipped).
	Proof *Result
}

// Kind summarizes the overall outcome.
func (r *PBAResult) Kind() Kind {
	if r.Phase1.Kind == KindCE || r.Phase1.Kind == KindTimeout {
		return r.Phase1.Kind
	}
	if r.Proof != nil {
		return r.Proof.Kind
	}
	return r.Phase1.Kind
}

// ProveWithPBA runs the §4.3 flow for one property over the base engine
// opt.Engine (the spec's pba is bmc3): BMC with proof-based abstraction on
// the concrete model — the base engine's memory model without termination
// checks — until the latch-reason set is stable for opt.StabilityDepth
// depths (default 10), then a full proof attempt with the termination
// checks on the abstract model. Counter-examples found in phase 1 are real
// (the model is concrete) and end the flow.
func ProveWithPBA(n *aig.Netlist, prop int, opt Options) *PBAResult {
	return ProveWithPBACtx(context.Background(), n, prop, opt)
}

// ProveWithPBACtx is ProveWithPBA under a cancellation context: ctx spans
// both phases, so cancelling it stops whichever phase is running. Each
// phase is wrapped in a "pba.phase" trace span carrying the phase name and
// its verdict.
func ProveWithPBACtx(ctx context.Context, n *aig.Netlist, prop int, opt Options) *PBAResult {
	p1opt := opt
	p1opt.pba = true
	p1opt.Engine = withProofs(opt.Engine, false) // phase 1 only hunts CEs and collects reasons
	p1opt.stopAtStable = true
	if p1opt.StabilityDepth <= 0 {
		p1opt.StabilityDepth = 10
	}
	t0 := time.Now()
	sp := opt.Obs.Span("pba.phase", obs.F("phase", "abstract"), obs.F("prop", prop))
	phase1 := CheckCtx(ctx, n, prop, p1opt)
	res := &PBAResult{Phase1: phase1, AbstractionTime: time.Since(t0)}
	sp.End(obs.F("kind", phase1.Kind.String()),
		obs.F("depth", phase1.Depth),
		obs.F("lr", phase1.Tracker.Size()))
	if phase1.Kind != KindStable && phase1.Kind != KindNoCE {
		return res
	}
	res.Abs = phase1.Tracker.Abstract(n)

	p2opt := opt
	p2opt.Engine = withProofs(opt.Engine, true)
	p2opt.abs = res.Abs
	p2opt.ValidateWitness = false // abstract-model traces may be spurious
	if opt.Timeout > 0 {
		// Give phase 2 whatever budget remains.
		p2opt.Timeout = opt.Timeout - res.AbstractionTime
		if p2opt.Timeout <= 0 {
			res.Proof = &Result{Kind: KindTimeout, Prop: prop}
			return res
		}
	}
	sp = opt.Obs.Span("pba.phase", obs.F("phase", "prove"), obs.F("prop", prop))
	res.Proof = CheckCtx(ctx, n, prop, p2opt)
	sp.End(obs.F("kind", res.Proof.Kind.String()), obs.F("depth", res.Proof.Depth))
	if res.Proof.Kind == KindCE {
		// A counter-example on the reduced model may be spurious (the
		// abstraction only preserves correctness up to the stability
		// depth). Fall back to the concrete model, as iterative
		// abstraction would.
		p3opt := opt
		p3opt.Engine = p2opt.Engine
		sp = opt.Obs.Span("pba.phase", obs.F("phase", "concrete-fallback"), obs.F("prop", prop))
		res.Proof = CheckCtx(ctx, n, prop, p3opt)
		sp.End(obs.F("kind", res.Proof.Kind.String()), obs.F("depth", res.Proof.Depth))
	}
	return res
}
