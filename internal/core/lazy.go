// Lazy EMM: demand-driven instantiation of the read-over-write forwarding
// constraints (boolector-style "lemmas on demand", specialized to the
// paper's eq. 3–5/eq. 6 encoding).
//
// The generator has one builder and two policies. The frame builder
// (addFrame) registers every read event, and extend/complete instantiate a
// read's forwarding levels and its initial-state tail. The eager policy
// completes every read inside AddUpTo and emits its eq. 6 pairs against
// every earlier read event: the ((4m+2n+1)kW + 2n+1)·R clauses of §4.1,
// quadratic in depth. Under EnableLazy, AddUpTo only registers the reads
// and materializes the memory *interface* literals (write/read enables,
// addresses, data words), leaving read data unconstrained. The BMC
// engine's refine loop (every query of a lazy window) then alternates
// solving with RefineLazy: the oracle replays the interface trace of the
// solver's model under the true memory semantics of §2.3 (reads observe
// the most recent earlier write to their address; unwritten locations show
// the initial state) and, for each read whose data disagrees, extends it
// exactly up to the culprit write.
//
// Soundness: dropping clauses weakens the formula, so an UNSAT answer on
// the relaxation implies UNSAT of the full encoding — a NO_CE depth or a
// termination proof is sound immediately. A SAT model is only reported
// after RefineLazy accepts it, i.e. after its interface trace is a genuine
// execution of the memory semantics, which is exactly what the full
// encoding enforces. Progress: every instantiated prefix is the exact
// encoding of its levels (full Tseitin gates, biconditional comparators),
// so a violation's culprit level always lies at or beyond the read's
// current frontier, and each refinement round strictly grows the
// instantiated set, which is bounded by the finite eager encoding — the
// loop terminates.
package core

import "emmver/internal/sat"

// EnableLazy switches the generator to the lazy policy. Must be called
// before the first frame. The caller owns the refinement loop: after every
// satisfiable solve it must call RefineLazy and re-solve until the model
// is accepted (see package comment).
func (g *Generator) EnableLazy() {
	g.mustBeFresh()
	g.lazy = true
}

// Lazy reports whether demand-driven emission is active (false on a nil
// generator, i.e. a window without EMM constraints).
func (g *Generator) Lazy() bool { return g != nil && g.lazy }

// lazyPair instantiates the eq. 6 consistency constraint between two
// completed arbitrary-init reads — (RA = RA' ∧ N ∧ N') → V = V' — unless
// that pair was already emitted. Pairs force equality only between their
// two endpoints, but within one same-address group a chain of adjacent
// pairs propagates it transitively, so the oracle never needs the eager
// all-pairs set, the quadratic bulk of the encoding.
func (g *Generator) lazyPair(mg *memGen, a, b *readEvent) bool {
	if a.id > b.id {
		a, b = b, a
	}
	key := [2]int{a.id, b.id}
	if mg.pairSeen[key] {
		return false
	}
	if mg.pairSeen == nil {
		mg.pairSeen = make(map[[2]int]bool)
	}
	mg.pairSeen[key] = true
	g.addInitPair(g.tagInit(a.k, a.mi, a.r), a, b)
	g.sizes.LazyAxioms++
	return true
}

// litTrue reads l's value in the solver's current model (Undef counts as
// false — only unreferenced free variables can be undefined).
func (g *Generator) litTrue(l sat.Lit) bool { return g.u.S.LitValue(l) == sat.True }

// modelVec decodes a literal vector (LSB first) from the current model.
func (g *Generator) modelVec(lits []sat.Lit) uint64 {
	var out uint64
	for i, l := range lits {
		if g.litTrue(l) {
			out |= 1 << uint(i)
		}
	}
	return out
}

// hit scans lr's forwarding levels most-recent-first under the current
// model and returns the first level whose write fired at address raddr,
// with the written word; (-1, 0) when no in-window write hit.
func (g *Generator) hit(mg *memGen, lr *readEvent, raddr uint64) (int, uint64) {
	for t, n := 0, mg.levels(lr); t < n; t++ {
		f, wp := mg.writeAt(lr.k, t)
		if g.u.ModelBit(wp.En, f) && g.u.ModelVec(wp.Addr, f) == raddr {
			return t, g.u.ModelVec(wp.Data, f)
		}
	}
	return -1, 0
}

// RefineLazy validates the solver's current satisfying model against the
// true memory semantics of §2.3 and instantiates exactly the violated
// read-over-write axioms. It returns the number of violations repaired: 0
// means the model's interface trace is a genuine memory execution and the
// SAT answer stands; otherwise the caller must re-solve (incrementally —
// only clauses were added) and validate again.
func (g *Generator) RefineLazy() int {
	if !g.lazy {
		return 0
	}
	viol := 0
	for mi, mg := range g.mems {
		if !g.memEnabled[mi] {
			continue
		}
		viol += g.refineMem(mg)
	}
	return viol
}

func (g *Generator) refineMem(mg *memGen) int {
	viol := 0
	arbitrary := g.arbitraryInit(mg.m)
	// For arbitrary init, unwritten reads of one address must agree (the
	// semantics eq. 6 enforces); group them by model address. The groups
	// are repaired in first-seen order (the slice), so refinement is
	// deterministic.
	type group struct {
		val      uint64
		disagree bool
		members  []*readEvent
	}
	var byAddr map[uint64]*group
	var groups []*group
	for _, lr := range mg.reads {
		if !g.litTrue(lr.re) {
			continue
		}
		raddr := g.modelVec(lr.addr)
		rd := g.modelVec(lr.rd)
		if hit, wd := g.hit(mg, lr, raddr); hit >= 0 {
			if rd == wd {
				continue
			}
			if hit < lr.level {
				// The instantiated prefix is the exact encoding of these
				// levels; a model cannot disagree with it.
				panic("core: lazy model violates an instantiated forwarding axiom")
			}
			g.extend(lr, hit)
			viol++
			continue
		}
		// No in-window write hit lr's address: the read observes the
		// initial state.
		if !arbitrary {
			if rd != 0 {
				if lr.complete {
					panic("core: lazy model violates a zero-init axiom")
				}
				g.complete(lr)
				viol++
			}
			continue
		}
		if g.eq6Disabled {
			// Without eq. 6 the eager encoding gives every unwritten read
			// its own unconstrained fresh word: any value is admissible.
			continue
		}
		if byAddr == nil {
			byAddr = make(map[uint64]*group)
		}
		gr := byAddr[raddr]
		if gr == nil {
			gr = &group{val: rd}
			byAddr[raddr] = gr
			groups = append(groups, gr)
		} else if gr.val != rd {
			gr.disagree = true
		}
		gr.members = append(gr.members, lr)
	}
	for _, gr := range groups {
		if !gr.disagree {
			continue
		}
		// Complete every member (symbolic word + validity) and chain the
		// group with adjacent eq. 6 pairs: all members are unwritten at one
		// address in this model, so the chain forces their words — hence
		// their read data — equal in the next one. If nothing new could be
		// emitted, the constraints already in force rule this model out,
		// and a "violation" would mean the instantiation is not the exact
		// eager encoding it claims to be.
		progress := false
		for _, lr := range gr.members {
			if !lr.complete {
				g.complete(lr)
				progress = true
			}
		}
		for i := 0; i+1 < len(gr.members); i++ {
			if g.lazyPair(mg, gr.members[i], gr.members[i+1]) {
				progress = true
			}
		}
		if !progress {
			panic("core: lazy model violates an eq. 6 consistency axiom")
		}
		viol++
	}
	return viol
}

// MemInit decodes, from the current model, the initial-memory words a
// counter-example depends on: every enabled read at frame <= depth that saw
// no in-window write pins the initial word at its address. The hit is
// re-derived from the model's interface trace, as the oracle does, so one
// decoder serves both policies: an eager model satisfies the full
// encoding, and a lazy one must have just been accepted (RefineLazy
// returned 0). A shared read is not listed, but its twin reads the same
// address and word.
func (g *Generator) MemInit(depth int) []map[int]uint64 {
	out := make([]map[int]uint64, len(g.mems))
	for mi, mg := range g.mems {
		words := make(map[int]uint64)
		if g.memEnabled[mi] {
			for _, lr := range mg.reads {
				if lr.k > depth || !g.litTrue(lr.re) {
					continue
				}
				raddr := g.modelVec(lr.addr)
				if hit, _ := g.hit(mg, lr, raddr); hit >= 0 {
					continue
				}
				words[int(raddr)] = g.modelVec(lr.rd)
			}
		}
		out[mi] = words
	}
	return out
}
