package unroll

import (
	"fmt"
	"math/rand"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/sat"
)

// eagerLFP is the eager loop-free-path encoding LoopFreeLit used before it
// became demand-driven, kept verbatim as the reference the refinement is
// checked against: at every new depth it adds the distinctness constraint
// of the new frame against every earlier frame up front.
type eagerLFP struct {
	u   *Unroller
	lfp []sat.Lit
}

// LoopFreeLit returns a CNF literal that, when assumed, forces the states
// at frames 0..depth to be pairwise distinct (LFP_depth in the paper's
// BMC-1/BMC-3). Only the "assume positively" direction is encoded.
func (r *eagerLFP) LoopFreeLit(depth int) sat.Lit {
	u := r.u
	if len(u.N.Latches) == 0 && !u.MemAwareLFP {
		// Any two frames have equal (empty) state, so no loop-free path
		// of length ≥ 1 exists. Spelled out rather than shared with the
		// production predicate, so the reference stays independent.
		if depth == 0 {
			return u.TrueLit()
		}
		return u.FalseLit()
	}
	for len(r.lfp) <= depth {
		i := len(r.lfp)
		tag := MkTag(TagLFP, i, 0)
		v := u.FreshVar()
		if i == 0 {
			// A single state is trivially loop-free.
			u.addClause(tag, v)
			r.lfp = append(r.lfp, v)
			continue
		}
		// v -> lfp[i-1]
		u.addClause(tag, v.Not(), r.lfp[i-1])
		si := u.stateVector(i)
		for a := 0; a < i; a++ {
			sa := u.stateVector(a)
			d := u.neqVector(sa, si, tag)
			// v -> (states differ ∨ a write changed memory in between).
			cl := []sat.Lit{v.Not(), d}
			if u.MemAwareLFP {
				for j := a; j < i; j++ {
					cl = append(cl, u.writeAnyLit(j))
				}
			}
			u.addClause(tag, cl...)
		}
		r.lfp = append(r.lfp, v)
	}
	return r.lfp[depth]
}

// solveLoopFree is the refinement entry point as the BMC engine drives it:
// solve under LoopFreeLit(depth) and extra, and while the answer is SAT and
// RefineLoopFree adds a pair, solve again. It also reports the pairs added.
func solveLoopFree(u *Unroller, depth int, extra ...sat.Lit) (sat.Status, int) {
	assumps := append([]sat.Lit{u.LoopFreeLit(depth)}, extra...)
	pairs := 0
	for {
		st := u.S.Solve(assumps...)
		if st != sat.Sat {
			return st, pairs
		}
		added := u.RefineLoopFree(depth)
		if added == 0 {
			return st, pairs
		}
		pairs += added
	}
}

// modelRepeat returns the first frame pair a < b ≤ depth the solver's model
// makes equal in the LFP sense (same latch state and, under MemAwareLFP, no
// write at frames a..b-1), or ok=false when the model is loop-free.
func modelRepeat(u *Unroller, depth int) (a, b int, ok bool) {
	for b = 1; b <= depth; b++ {
	pairs:
		for a = 0; a < b; a++ {
			sa, sb := u.stateVector(a), u.stateVector(b)
			for j := range sa {
				if u.S.LitValue(sa[j]) != u.S.LitValue(sb[j]) {
					continue pairs
				}
			}
			if u.MemAwareLFP {
				for j := a; j < b; j++ {
					if u.S.LitValue(u.writeAnyLit(j)) == sat.True {
						continue pairs
					}
				}
			}
			return a, b, true
		}
	}
	return 0, 0, false
}

// randomStateNetlist builds a small random sequential design: 1–4 latches
// with mixed Init0/Init1/InitX resets (a state space small enough for the
// loop-free path to run out within a few frames), random gates over
// latches, inputs and memory read data, and — for half the seeds — one
// memory with zero to two write ports. Props[0] is a random signal for
// backward-check-style assumptions.
func randomStateNetlist(rng *rand.Rand) *aig.Netlist {
	n := aig.New("lfp")
	var sigs []aig.Lit
	for i := 0; i < rng.Intn(3); i++ {
		sigs = append(sigs, n.NewInput(fmt.Sprintf("in%d", i)))
	}
	var latches []aig.Lit
	for i := 0; i < 1+rng.Intn(4); i++ {
		l := n.NewLatch(fmt.Sprintf("r%d", i), aig.Init(rng.Intn(3)))
		latches = append(latches, l)
		sigs = append(sigs, l)
	}
	pick := func() aig.Lit {
		l := sigs[rng.Intn(len(sigs))]
		if rng.Intn(2) == 1 {
			l = l.Not()
		}
		return l
	}
	picks := func(w int) []aig.Lit {
		out := make([]aig.Lit, w)
		for i := range out {
			out[i] = pick()
		}
		return out
	}
	if rng.Intn(2) == 0 {
		m := n.NewMemory("mem", 1+rng.Intn(2), 1+rng.Intn(2), aig.MemInit(rng.Intn(2)))
		rp := n.NewReadPort(m)
		for w := rng.Intn(3); w > 0; w-- {
			n.NewWritePort(m, picks(m.AW), picks(m.DW), pick())
		}
		n.SetReadAddr(m, rp, picks(m.AW), pick())
		sigs = append(sigs, rp.DataLits()...)
	}
	for i := 0; i < 3+rng.Intn(10); i++ {
		var g aig.Lit
		switch rng.Intn(3) {
		case 0:
			g = n.And(pick(), pick())
		case 1:
			g = n.Xor(pick(), pick())
		default:
			g = n.Mux(pick(), pick(), pick())
		}
		sigs = append(sigs, g)
	}
	for _, l := range latches {
		n.SetNext(l, pick())
	}
	n.AddProperty("p", pick())
	return n
}

// TestRefinedLoopFreeMatchesEager checks that the demand-driven
// loop-free-path constraint answers every query exactly as the eager
// encoding does, on seeded random netlists across both unrolling modes,
// init folding, memory-aware and pure-latch LFP, and abstracted latches.
// Each depth asks the forward-check query (LFP alone) and a
// backward-check-style one (LFP ∧ ¬P_d ∧ P_0..P_{d-1}); every refined SAT
// model must itself be loop-free on every pair.
func TestRefinedLoopFreeMatchesEager(t *testing.T) {
	const seeds, maxDepth = 80, 17
	var nSat, nUnsat, pairs, eagerPairs int
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randomStateNetlist(rng)
		mode := Mode(rng.Intn(2))
		fold := rng.Intn(2) == 0
		memAware := len(n.Memories) > 0 && rng.Intn(3) != 0
		abstracted := map[aig.NodeID]bool{}
		if len(n.Latches) > 1 && rng.Intn(3) == 0 {
			abstracted[n.Latches[rng.Intn(len(n.Latches))].Node] = true
		}
		mk := func() *Unroller {
			u := New(n, sat.New(), mode)
			u.FoldInits = fold
			u.MemAwareLFP = memAware
			for id := range abstracted {
				u.Abstracted[id] = true
			}
			return u
		}
		ue, ur := mk(), mk()
		ref := &eagerLFP{u: ue}
		// Depths ascend as in one BMC run, then descend again as when an
		// engine is reused for the next property: pairs added at a deep
		// depth must still bind the shallower queries.
		var depths []int
		for d := 0; d <= maxDepth; d++ {
			depths = append(depths, d)
		}
		for d := maxDepth - 1; d >= 0; d-- {
			depths = append(depths, d)
		}
		for _, d := range depths {
			for q := 0; q < 2; q++ {
				var extraE, extraR []sat.Lit
				if q == 1 {
					extraE = append(extraE, ue.PropertyLit(0, d).Not())
					extraR = append(extraR, ur.PropertyLit(0, d).Not())
					for j := 0; j < d; j++ {
						extraE = append(extraE, ue.PropertyLit(0, j))
						extraR = append(extraR, ur.PropertyLit(0, j))
					}
				}
				want := ue.S.Solve(append([]sat.Lit{ref.LoopFreeLit(d)}, extraE...)...)
				got, added := solveLoopFree(ur, d, extraR...)
				pairs += added
				if got != want {
					t.Fatalf("seed %d (mode %v fold %v memAware %v abstracted %d) depth %d query %d: refined %v, eager %v",
						seed, mode, fold, memAware, len(abstracted), d, q, got, want)
				}
				if got == sat.Sat {
					nSat++
					if a, b, rep := modelRepeat(ur, d); rep {
						t.Fatalf("seed %d depth %d query %d: refined SAT model repeats frames %d and %d", seed, d, q, a, b)
					}
				} else {
					nUnsat++
				}
			}
		}
		eagerPairs += maxDepth * (maxDepth + 1) / 2 // per seed, pairs a < b ≤ maxDepth
	}
	// The check is only meaningful if both answers occur often and the
	// refinement actually does work.
	if nSat < 200 || nUnsat < 200 || pairs == 0 {
		t.Fatalf("degenerate sweep: %d SAT, %d UNSAT, %d pairs", nSat, nUnsat, pairs)
	}
	t.Logf("%d SAT, %d UNSAT answers; %d of %d eager pair constraints instantiated", nSat, nUnsat, pairs, eagerPairs)
}

// TestRefineLoopFreeAddsOnlyViolatedPairs pins the refinement's contract
// on a 2-bit counter: each call adds only pairs the current model repeats,
// never the same pair twice, and returns 0 once the model is loop-free.
func TestRefineLoopFreeAddsOnlyViolatedPairs(t *testing.T) {
	m, en, _ := counterDesign(2)
	u := New(m.N, sat.New(), Initialized)
	// With the counter disabled the state never moves: every pair repeats.
	stuck := u.Lit(en, 0).Not()
	for f := 1; f < 3; f++ {
		stuck = u.MkAndAux(stuck, u.Lit(en, f).Not(), MkTag(TagAux, f, 0))
	}
	lfp := u.LoopFreeLit(3)
	if u.S.Solve(lfp, stuck) != sat.Sat {
		t.Fatalf("relaxed LFP must admit the stuck trace before refinement")
	}
	if got := u.RefineLoopFree(3); got != 6 {
		t.Fatalf("stuck trace repeats all 6 pairs of frames 0..3, refinement added %d", got)
	}
	if u.S.Solve(lfp, stuck) != sat.Unsat {
		t.Fatalf("the refined LFP must exclude the stuck trace")
	}
	// Every pair is encoded now, so no later model can add one.
	st, more := solveLoopFree(u, 3)
	if st != sat.Sat || more != 0 {
		t.Fatalf("the counter has a loop-free path of length 3: got %v after %d more pairs", st, more)
	}
	if _, _, rep := modelRepeat(u, 3); rep {
		t.Fatalf("the final model must be loop-free")
	}
}
