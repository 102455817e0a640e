// The k-induction engine (spec engine "kind"): temporal induction on the
// model/session/strategy seam. It reuses the Model's two windows and the
// Session's solvers unchanged — the strategy below is the whole engine,
// plus one Model-level strengthening (write-free-init retention on the
// backward window, see newWindow).

package bmc

import (
	"context"

	"emmver/internal/sat"
)

// kindStrategy implements k-induction (temporal induction). At each k:
//
//  1. Base case — the plain counter-example check SAT(I ∧ ¬P_k ∧ C_k),
//     for each open property. SAT falsifies the property with a
//     replayable witness.
//  2. Recurrence-diameter check — SAT(I ∧ LFP_k ∧ C_k), once per depth.
//     UNSAT means no loop-free initialized path of length k exists, so the
//     base cases already covered every reachable state: PROOF (forward)
//     for every open property.
//  3. Induction step — SAT(LFP_k ∧ P_0..P_{k-1} ∧ ¬P_k ∧ C_k) on the
//     arbitrary-initial-state backward window, for each open property.
//     UNSAT means a state satisfying P for k steps cannot reach ¬P:
//     together with the base cases, PROOF (backward).
//
// The checks are BMC-3's, reordered base-first; what makes kind prove
// designs BMC-3 cannot is the induction step's strengthened memory model:
// the backward window retains declared initial contents for write-free
// memories instead of treating them as arbitrary (see newWindow).
// Both UNSAT checks are monotone in k — a satisfying assignment at k
// restricts (2) by prefix and (3) by suffix to one at k-1 — so skipping
// depths below a warm-start frontier never loses a proof: a warm-started
// run reproves at the frontier what a cold run proved below it. The
// recurrence-diameter check is property-independent, so it consults the
// property groups' forward oracle exactly as bmcStrategy does; only Step
// differs from bmcStrategy.
type kindStrategy struct{ bmcStrategy }

func (s *kindStrategy) Name() string { return "kind" }

func (s *kindStrategy) Step(_ context.Context, k int) (*Result, bool) {
	e, d := s.e, s.d
	for pi, p := range d.props {
		if d.res[pi] != nil {
			continue
		}
		if r := e.solveCE(p, k); r != nil {
			if r.Kind == KindTimeout {
				return r, true
			}
			d.resolve(pi, r)
		}
	}
	if d.open == 0 {
		return nil, true
	}
	switch e.oracleForwardCheck(k, s.fwd) {
	case sat.Unsat:
		e.logf("depth %d: forward termination", k)
		return &Result{Kind: KindProof, Depth: k, ProofSide: "forward"}, true
	case sat.Unknown:
		return &Result{Kind: KindTimeout, Depth: k}, true
	}
	for pi, p := range d.props {
		if d.res[pi] != nil {
			continue
		}
		switch e.backwardCheck(p, k) {
		case sat.Unsat:
			e.logf("depth %d: prop %d: induction step holds", k, p)
			d.resolve(pi, &Result{Kind: KindProof, Depth: k, ProofSide: "backward"})
		case sat.Unknown:
			return &Result{Kind: KindTimeout, Depth: k}, true
		}
	}
	if d.open == 0 {
		return nil, true
	}
	e.logf("depth %d: no CE, induction step fails", k)
	return nil, false
}
