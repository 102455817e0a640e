// Lazy EMM: demand-driven instantiation of the read-over-write forwarding
// constraints (boolector-style "lemmas on demand", specialized to the
// paper's eq. 3–5/eq. 6 encoding).
//
// In eager mode the generator emits, at every depth k, the full forwarding
// chain of every enabled read against every enabled earlier write — the
// ((4m+2n+1)kW + 2n+1)·R clauses of §4.1, quadratic in depth. Under
// EnableLazy, AddUpTo only materializes the memory *interface* literals
// (write/read enables, addresses, data words) and leaves read data
// unconstrained. The BMC engine's refine loop (every query of a lazy
// window) then alternates solving with RefineLazy: the oracle replays the
// interface trace of the solver's model under the true memory semantics of
// §2.3 (reads observe the most recent earlier write to their address;
// unwritten locations show the initial state) and, for each read whose
// data disagrees, instantiates exactly the forwarding levels up to the
// culprit write — the same comparator + exclusivity-chain + eq. 5 clauses
// the eager encoding would have built for that (read, write) pair, with
// the chain suspended so a later round can resume it.
//
// Soundness: dropping clauses weakens the formula, so an UNSAT answer on
// the relaxation implies UNSAT of the full encoding — a NO_CE depth or a
// termination proof is sound immediately. A SAT model is only reported
// after RefineLazy accepts it, i.e. after its interface trace is a genuine
// execution of the memory semantics, which is exactly what the full
// encoding enforces. Progress: every instantiated prefix is the exact
// eager encoding of its levels (full Tseitin gates, biconditional
// comparators), so a violation's culprit level always lies at or beyond
// the read's current frontier, and each refinement round strictly grows
// the instantiated set, which is bounded by the finite eager encoding —
// the loop terminates.
package core

import "emmver/internal/sat"

// lazyWrite caches the CNF literals of one enabled write port at one
// frame — the granularity at which forwarding levels are instantiated and
// the oracle decodes the write trace.
type lazyWrite struct {
	we   sat.Lit
	addr []sat.Lit
	data []sat.Lit
}

// lazyRead is one enabled read event under lazy mode. Levels count
// candidate forwarding sources most-recent-first (frames descending, write
// ports descending within a frame — the priority order of eq. 4's chain);
// level is the instantiation frontier: levels below it carry the exact
// eager constraints, levels at or beyond it are unconstrained.
type lazyRead struct {
	id       int
	mi, r, k int
	re       sat.Lit
	addr     []sat.Lit
	rd       []sat.Lit
	// ps is the suspended exclusivity-chain literal: after `level`
	// instantiated levels it equals RE ∧ ¬s_0 ∧ … ∧ ¬s_{level-1}.
	ps       sat.Lit
	level    int
	matches  []sat.Lit // S_t of the instantiated levels, for the validity clause
	complete bool
	vword    []sat.Lit // symbolic initial word, set at completion (arbitrary init)
}

// EnableLazy switches the generator to demand-driven constraint emission.
// Must be called before the first frame; incompatible with the direct
// eq. 1 encoding (the refinement machinery suspends and resumes the
// exclusivity chains). The caller owns the refinement loop: after every
// satisfiable solve it must call RefineLazy and re-solve until the model
// is accepted (see package comment).
func (g *Generator) EnableLazy() {
	g.mustBeFresh()
	if g.noExclusivity {
		panic("core: lazy EMM requires the exclusivity-chain encoding")
	}
	g.lazy = true
}

// Lazy reports whether demand-driven emission is active (false on a nil
// generator, i.e. a window without EMM constraints).
func (g *Generator) Lazy() bool { return g != nil && g.lazy }

// lazyAddFrame is addFrame under lazy mode: it builds the frame-k memory
// interface literals so the oracle can decode them from any model,
// registers the frame's read events as pending, and emits no forwarding
// constraints at all. A read event that duplicates an
// earlier one of the frame (see shareReads) gets RE → RD = RD_twin at once
// and is not tracked: the oracle validating its twin validates it too.
func (g *Generator) lazyAddFrame(k int) {
	u := g.u
	for mi, mg := range g.mems {
		if !g.memEnabled[mi] {
			continue
		}
		var ws []lazyWrite
		for w, wp := range mg.m.Writes {
			if !g.writeEnabled[mi][w] {
				continue
			}
			ws = append(ws, lazyWrite{
				we:   u.Lit(wp.En, k),
				addr: u.VecLits(wp.Addr, k),
				data: u.VecLits(wp.Data, k),
			})
		}
		mg.wpc = len(ws)
		mg.lwrites = append(mg.lwrites, ws)
		share := g.shareReads(mg.m)
		var frame []readLits
		for r, rp := range mg.m.Reads {
			if !g.readEnabled[mi][r] {
				continue
			}
			ev := g.readLitsAt(r, rp, k)
			if g.shareRead(&frame, share, mi, k, ev) != nil {
				continue
			}
			mg.lazyReads = append(mg.lazyReads, &lazyRead{
				id: len(mg.lazyReads),
				mi: mi, r: r, k: k,
				re:   ev.re,
				addr: ev.addr,
				rd:   ev.rd,
				ps:   ev.re,
			})
			g.sizes.LazyReads++
		}
	}
}

// lazyLevels is the number of forwarding levels read lr can see: one per
// enabled write port per earlier frame.
func (mg *memGen) lazyLevels(lr *lazyRead) int { return lr.k * mg.wpc }

// lazyWriteAt maps level t (0 = most recent) of a read at frame k to its
// write event, following the eager priority order: frames descending,
// write ports descending within a frame.
func (mg *memGen) lazyWriteAt(k, t int) *lazyWrite {
	frame := k - 1 - t/mg.wpc
	idx := mg.wpc - 1 - t%mg.wpc
	return &mg.lwrites[frame][idx]
}

// lazyExtendTo instantiates forwarding levels lr.level..level: the address
// comparator (memoized like the eager path), the match gate s = E ∧ WE,
// the exclusivity-chain step S = s ∧ ps / ps' = ¬s ∧ ps of eq. 4, and the
// eq. 5 read-data clauses against the matched write. The result is exactly
// the eager encoding of those levels, with the chain left suspended at the
// new frontier.
func (g *Generator) lazyExtendTo(lr *lazyRead, level int) {
	u := g.u
	mg := g.mems[lr.mi]
	tag := g.tagEMM(lr.k, lr.mi, lr.r)
	for lr.level <= level {
		wv := mg.lazyWriteAt(lr.k, lr.level)
		e := g.addrEqual(wv.addr, lr.addr, tag)
		s := u.MkAndAux(e, wv.we, tag)
		g.sizes.Gates++
		bigS := u.MkAndAux(s, lr.ps, tag)
		lr.ps = u.MkAndAux(s.Not(), lr.ps, tag)
		g.sizes.Gates += 2
		for bit := range lr.rd {
			g.addClause(tag, bigS.Not(), lr.rd[bit].Not(), wv.data[bit])
			g.addClause(tag, bigS.Not(), lr.rd[bit], wv.data[bit].Not())
			g.sizes.ReadDataClauses += 2
		}
		lr.matches = append(lr.matches, bigS)
		lr.level++
		g.sizes.LazyAxioms++
	}
}

// lazyComplete drives lr to its full per-read eager constraint set: every
// remaining forwarding level, the initial-state tail (a fresh symbolic
// word V with N → RD = V for arbitrary init, N → RD = 0 for zero init),
// and the read validity clause of §3. The eq. 6 cross-read consistency
// pairs stay demand-driven even after completion: the oracle instantiates
// them per disagreeing address group (lazyPair), because the eager
// all-pairs set is the quadratic bulk of the encoding and almost all of it
// is irrelevant to any one query.
func (g *Generator) lazyComplete(lr *lazyRead) {
	if lr.complete {
		return
	}
	u := g.u
	mg := g.mems[lr.mi]
	if n := mg.lazyLevels(lr); n > 0 {
		g.lazyExtendTo(lr, n-1)
	}
	tag := g.tagEMM(lr.k, lr.mi, lr.r)
	itag := g.tagInit(lr.k, lr.mi, lr.r)
	arbitrary := g.arbitraryInit(mg.m)
	if arbitrary {
		lr.vword = make([]sat.Lit, mg.m.DW)
		for bit := range lr.vword {
			v := u.FreshVar()
			g.sizes.AuxVars++
			lr.vword[bit] = v
			g.addClause(itag, lr.ps.Not(), lr.rd[bit].Not(), v)
			g.addClause(itag, lr.ps.Not(), lr.rd[bit], v.Not())
			g.sizes.ReadDataClauses += 2
		}
	} else {
		for bit := range lr.rd {
			g.addClause(itag, lr.ps.Not(), lr.rd[bit].Not())
			g.sizes.ReadDataClauses++
		}
	}
	valid := make([]sat.Lit, 0, len(lr.matches)+2)
	valid = append(valid, lr.re.Not(), lr.ps)
	valid = append(valid, lr.matches...)
	g.addClause(tag, valid...)
	g.sizes.ReadDataClauses++
	lr.complete = true
	g.sizes.LazyCompleted++
}

// lazyPair instantiates the eq. 6 consistency constraint between two
// completed arbitrary-init reads — (RA = RA' ∧ N ∧ N') → V = V' — unless
// that pair was already emitted. Pairs force equality only between their
// two endpoints, but within one same-address group a chain of adjacent
// pairs propagates it transitively, so the oracle never needs the eager
// all-pairs set.
func (g *Generator) lazyPair(mg *memGen, a, b *lazyRead) bool {
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
	g.addInitPair(g.tagInit(a.k, a.mi, a.r), a.addr, a.ps, a.vword, b.addr, b.ps, b.vword)
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

// lazyHit scans lr's forwarding levels most-recent-first under the current
// model and returns the first level whose write fired at address raddr,
// with the written word; (-1, 0) when no in-window write hit.
func (g *Generator) lazyHit(mg *memGen, lr *lazyRead, raddr uint64) (int, uint64) {
	for t, n := 0, mg.lazyLevels(lr); t < n; t++ {
		wv := mg.lazyWriteAt(lr.k, t)
		if g.litTrue(wv.we) && g.modelVec(wv.addr) == raddr {
			return t, g.modelVec(wv.data)
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
		members  []*lazyRead
	}
	var byAddr map[uint64]*group
	var groups []*group
	for _, lr := range mg.lazyReads {
		if !g.litTrue(lr.re) {
			continue
		}
		raddr := g.modelVec(lr.addr)
		rd := g.modelVec(lr.rd)
		if hit, wd := g.lazyHit(mg, lr, raddr); hit >= 0 {
			if rd == wd {
				continue
			}
			if hit < lr.level {
				// The instantiated prefix is the exact eager encoding of
				// these levels; a model cannot disagree with it.
				panic("core: lazy model violates an instantiated forwarding axiom")
			}
			g.lazyExtendTo(lr, hit)
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
				g.lazyComplete(lr)
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
				g.lazyComplete(lr)
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

// LazyMemInit decodes, from the current (oracle-validated) model, the
// arbitrary-initial-memory words a counter-example depends on — the lazy
// counterpart of the witness extractor's ReadEvents scan: every enabled
// read at frame <= depth that saw no in-window write pins the initial word
// at its address. Only meaningful right after RefineLazy returned 0.
func (g *Generator) LazyMemInit(depth int) []map[int]uint64 {
	out := make([]map[int]uint64, len(g.mems))
	for mi, mg := range g.mems {
		words := make(map[int]uint64)
		if g.memEnabled[mi] {
			for _, lr := range mg.lazyReads {
				if lr.k > depth || !g.litTrue(lr.re) {
					continue
				}
				raddr := g.modelVec(lr.addr)
				if hit, _ := g.lazyHit(mg, lr, raddr); hit >= 0 {
					continue
				}
				words[int(raddr)] = g.modelVec(lr.rd)
			}
		}
		out[mi] = words
	}
	return out
}
