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
//  1. Base case — the plain counter-example check SAT(I ∧ ¬P_k ∧ C_k).
//     SAT falsifies the property with a replayable witness.
//  2. Recurrence-diameter check — SAT(I ∧ LFP_k ∧ C_k). UNSAT means no
//     loop-free initialized path of length k exists, so the base cases
//     already covered every reachable state: PROOF (forward).
//  3. Induction step — SAT(LFP_k ∧ P_0..P_{k-1} ∧ ¬P_k ∧ C_k) on the
//     arbitrary-initial-state backward window. UNSAT means a state
//     satisfying P for k steps cannot reach ¬P: together with the base
//     cases, PROOF (backward).
//
// The checks are BMC-3's, reordered base-first; what makes kind prove
// designs BMC-3 cannot is the induction step's strengthened memory model:
// the backward window retains declared initial contents for write-free
// memories instead of treating them as arbitrary (Options.KInduction).
// Both UNSAT checks are monotone in k — a satisfying assignment at k
// restricts (2) by prefix and (3) by suffix to one at k-1 — so skipping
// depths below a warm-start frontier never loses a proof: a warm-started
// run reproves at the frontier what a cold run proved below it.
type kindStrategy struct{ e *engine }

func (s *kindStrategy) Name() string { return "kind" }

func (s *kindStrategy) Step(_ context.Context, k int) (*Result, bool) {
	e := s.e
	prop := e.prop
	if r := e.solveCE(prop, k); r != nil {
		return r, true
	}
	switch e.forwardCheck(k) {
	case sat.Unsat:
		e.logf("depth %d: forward termination", k)
		return &Result{Kind: KindProof, Depth: k, ProofSide: "forward"}, true
	case sat.Unknown:
		return &Result{Kind: KindTimeout, Depth: k}, true
	}
	switch e.backwardCheck(prop, k) {
	case sat.Unsat:
		e.logf("depth %d: induction step holds", k)
		return &Result{Kind: KindProof, Depth: k, ProofSide: "backward"}, true
	case sat.Unknown:
		return &Result{Kind: KindTimeout, Depth: k}, true
	}
	e.logf("depth %d: no CE, induction step fails", k)
	return nil, false
}
