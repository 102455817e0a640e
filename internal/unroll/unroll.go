// Package unroll performs time-frame expansion of an aig netlist into the
// incremental SAT solver: each design literal at each analysis depth maps to
// a CNF literal, combinational gates are Tseitin-encoded on demand, latches
// are chained across frames through tagged interface clauses, and loop-free
// path (simple-path) constraints support the SAT-based induction proofs of
// BMC-1/BMC-3.
package unroll

import (
	"fmt"
	"slices"

	"emmver/internal/aig"
	"emmver/internal/obs"
	"emmver/internal/sat"
)

// Mode selects the interpretation of the first time frame.
type Mode int

// Unrolling modes.
const (
	// Initialized anchors frame 0 at the design's initial state: latches
	// take their declared reset values (InitX latches become free
	// variables). Used for the "I ∧ ..." SAT problems.
	Initialized Mode = iota
	// Free leaves frame-0 latches unconstrained. Used for the backward
	// (induction-step) SAT problems, which quantify over arbitrary
	// starting states.
	Free
)

// String names the mode.
func (m Mode) String() string {
	if m == Free {
		return "free"
	}
	return "initialized"
}

// Unroller expands a netlist over time frames into a SAT solver.
type Unroller struct {
	N    *aig.Netlist
	S    *sat.Solver
	Mode Mode

	// Abstracted marks latches replaced by pseudo-primary inputs (PBA
	// latch-based abstraction). Must be populated before any frame of the
	// latch is unrolled.
	Abstracted map[aig.NodeID]bool

	// FoldInits folds latch reset values into structural constants at
	// frame 0, and a latch whose next-state literal is a constant into
	// that constant at the next frame, so a reset counter stays a
	// constant through the whole initialized window. This shrinks the
	// formula but erases the initial-value and latch-next clauses from
	// UNSAT cores, so it must stay false when the run feeds proof-based
	// abstraction.
	FoldInits bool

	// MemAwareLFP strengthens the loop-free-path constraint for designs
	// whose memories are NOT part of the latch state (EMM models): two
	// frames count as equal only if their latch states match AND no write
	// port fired in between (the memory provably did not change). The
	// paper's literal LFP compares latches only, which can declare bogus
	// "diameters" when behavior depends on evolving memory contents; see
	// EXPERIMENTS.md. Ignored when the netlist has no memories.
	MemAwareLFP bool

	frames []frame

	constFalse sat.Lit // a CNF literal fixed to false

	latchIdx map[aig.NodeID]int // node -> position in N.Latches

	lfp      []sat.Lit // lfp[i] = loop-free-path activation literal for window [0, i]
	writeAny []sat.Lit // per frame: some write port enabled

	// lfpPaired[b][a] records that the distinctness constraint of frame
	// pair (a, b) has been added (RefineLoopFree).
	lfpPaired [][]bool

	// NoStrash disables the structural-hashing cache on AND gates. Only
	// used for A/B measurements and equivalence tests; hashing is sound
	// (gates are pure combinational definitions) and on by default.
	NoStrash bool

	// strash maps a normalized (a, b) input pair to the literal of the AND
	// gate already built for it, so repeated gates cost a map hit instead
	// of a fresh variable plus three clauses. Keys are normalized with
	// a ≤ b; constant and complement cases fold before the lookup.
	strash map[[2]sat.Lit]sat.Lit

	// StrashHits counts gate requests answered from the strash cache.
	StrashHits int

	// GatesBuilt counts AND gates actually Tseitin-encoded (strash hits
	// excluded), so GatesBuilt + StrashHits is the number of gate requests.
	GatesBuilt int

	// Clause/variable accounting.
	ClausesAdded int
	AuxVars      int

	// Observability (AttachObs): registry counters the unroller publishes
	// cumulative-tally deltas into on PublishObs. The per-gate counters
	// above stay plain ints on the build path; only the depth-boundary
	// publish touches atomics.
	obsGates   *obs.Counter
	obsStrash  *obs.Counter
	obsClauses *obs.Counter
	obsVars    *obs.Counter
	obsPub     struct{ gates, strash, clauses, vars int }
}

type frame struct {
	vals        []sat.Lit // node id -> CNF literal, -1 when not yet built
	constrained bool      // environment constraints asserted for this frame
}

// New creates an unroller feeding the given solver. The solver must be
// fresh (no variables allocated).
func New(n *aig.Netlist, s *sat.Solver, mode Mode) *Unroller {
	u := &Unroller{
		N:          n,
		S:          s,
		Mode:       mode,
		Abstracted: make(map[aig.NodeID]bool),
		latchIdx:   make(map[aig.NodeID]int),
	}
	cv := s.NewVar()
	u.constFalse = sat.NegLit(cv)
	s.AddClauseTagged(int64(MkTag(TagAux, 0, 0)), []sat.Lit{sat.PosLit(cv)})
	for i, l := range n.Latches {
		u.latchIdx[l.Node] = i
	}
	return u
}

// AttachObs binds the unroller to an observer's metrics registry under the
// canonical unroll.* names. Like the solver, several unrollers (forward,
// backward, fleet workers) attach to one registry and publish deltas.
func (u *Unroller) AttachObs(o *obs.Observer) {
	reg := o.Registry()
	if reg == nil {
		return
	}
	u.obsGates = reg.Counter(obs.MUnrollGates)
	u.obsStrash = reg.Counter(obs.MStrashHits)
	u.obsClauses = reg.Counter(obs.MUnrollClauses)
	u.obsVars = reg.Counter(obs.MUnrollVars)
}

// PublishObs pushes the tally growth since the last publish into the
// attached registry (no-op when detached). The BMC engine calls it at
// depth boundaries.
func (u *Unroller) PublishObs() {
	if u.obsGates == nil {
		return
	}
	u.obsGates.Add(int64(u.GatesBuilt - u.obsPub.gates))
	u.obsStrash.Add(int64(u.StrashHits - u.obsPub.strash))
	u.obsClauses.Add(int64(u.ClausesAdded - u.obsPub.clauses))
	u.obsVars.Add(int64(u.AuxVars - u.obsPub.vars))
	u.obsPub.gates, u.obsPub.strash = u.GatesBuilt, u.StrashHits
	u.obsPub.clauses, u.obsPub.vars = u.ClausesAdded, u.AuxVars
}

// FalseLit returns the CNF literal fixed to false.
func (u *Unroller) FalseLit() sat.Lit { return u.constFalse }

// TrueLit returns the CNF literal fixed to true.
func (u *Unroller) TrueLit() sat.Lit { return u.constFalse.Not() }

// IsConst reports whether l is one of the two constant CNF literals.
func (u *Unroller) IsConst(l sat.Lit) bool {
	return l.Var() == u.constFalse.Var()
}

// Frames returns the number of frames touched so far.
func (u *Unroller) Frames() int { return len(u.frames) }

func (u *Unroller) frameAt(t int) *frame {
	for len(u.frames) <= t {
		f := frame{vals: make([]sat.Lit, u.N.NumNodes())}
		for i := range f.vals {
			f.vals[i] = sat.LitUndef
		}
		u.frames = append(u.frames, f)
	}
	return &u.frames[t]
}

func (u *Unroller) addClause(tag Tag, lits ...sat.Lit) {
	u.S.AddClauseTagged(int64(tag), lits)
	u.ClausesAdded++
}

// FreshVar allocates an auxiliary CNF variable.
func (u *Unroller) FreshVar() sat.Lit {
	u.AuxVars++
	return sat.PosLit(u.S.NewVar())
}

// Lit returns the CNF literal of design literal l at time frame t, building
// the needed logic on demand.
func (u *Unroller) Lit(l aig.Lit, t int) sat.Lit {
	v := u.nodeLit(l.Node(), t)
	if l.Inverted() {
		return v.Not()
	}
	return v
}

func (u *Unroller) nodeLit(id aig.NodeID, t int) sat.Lit {
	f := u.frameAt(t)
	if v := f.vals[id]; v != sat.LitUndef {
		return v
	}
	node := u.N.NodeAt(id)
	var v sat.Lit
	switch node.Kind {
	case aig.KConst:
		v = u.constFalse
	case aig.KInput, aig.KMemRead:
		v = u.FreshVar()
	case aig.KLatch:
		v = u.latchLit(id, t)
	case aig.KAnd:
		a := u.Lit(node.F0, t)
		b := u.Lit(node.F1, t)
		v = u.mkAnd(a, b, MkTag(TagGate, t, int(id)))
	default:
		panic(fmt.Sprintf("unroll: unknown node kind %v", node.Kind))
	}
	// Re-fetch the frame: building fanins may have grown u.frames.
	u.frames[t].vals[id] = v
	return v
}

func (u *Unroller) latchLit(id aig.NodeID, t int) sat.Lit {
	l := u.N.LatchOf(id)
	idx := u.latchIdx[id]
	if u.Abstracted[id] {
		return u.FreshVar() // pseudo-primary input at every frame
	}
	if t == 0 {
		if u.Mode == Free || l.Init == aig.InitX {
			return u.FreshVar()
		}
		if u.FoldInits {
			if l.Init == aig.Init0 {
				return u.constFalse
			}
			return u.constFalse.Not()
		}
		// A dedicated frame-0 variable pinned by a tagged unit clause, so
		// that proof cores can attribute initial values to their latch.
		v := u.FreshVar()
		lit := v
		if l.Init == aig.Init0 {
			lit = v.Not()
		}
		u.addClause(MkTag(TagLatchInit, 0, idx), lit)
		return v
	}
	next := u.Lit(l.Next, t-1)
	if u.FoldInits && u.IsConst(next) {
		// A constant next state stays a constant, so a reset counter folds
		// through the whole initialized window.
		return next
	}
	// A dedicated latch interface variable, tied to the next-state value
	// through clauses tagged with the latch index — these tags are what
	// latch-based proof abstraction harvests from UNSAT cores.
	v := u.FreshVar()
	tag := MkTag(TagLatchNext, t, idx)
	u.addClause(tag, v.Not(), next)
	u.addClause(tag, v, next.Not())
	return v
}

// mkAnd builds (and Tseitin-encodes) the conjunction of two CNF literals,
// with constant and structural folding. Repeated (a, b) pairs are answered
// from the strash cache: the same gate is never encoded twice, which keeps
// the CNF linear where the EMM constraints request structurally identical
// comparators at successive depths. The cached gate keeps its first
// creator's tag. That is sound for verdicts, but the EMM generator routes
// TagEMM-tagged gates through here, and proof-based abstraction decides
// relevance from the tags in UNSAT cores — so the BMC engine sets NoStrash
// whenever cores are being tracked (see newEngine).
func (u *Unroller) mkAnd(a, b sat.Lit, tag Tag) sat.Lit {
	cf, ct := u.constFalse, u.constFalse.Not()
	switch {
	case a == cf || b == cf:
		return cf
	case a == ct:
		return b
	case b == ct:
		return a
	case a == b:
		return a
	case a == b.Not():
		return cf
	}
	if !u.NoStrash {
		if a > b {
			a, b = b, a
		}
		key := [2]sat.Lit{a, b}
		if v, ok := u.strash[key]; ok {
			u.StrashHits++
			return v
		}
		v := u.FreshVar()
		u.GatesBuilt++
		u.addClause(tag, v.Not(), a)
		u.addClause(tag, v.Not(), b)
		u.addClause(tag, v, a.Not(), b.Not())
		if u.strash == nil {
			u.strash = make(map[[2]sat.Lit]sat.Lit)
		}
		u.strash[key] = v
		return v
	}
	v := u.FreshVar()
	u.GatesBuilt++
	u.addClause(tag, v.Not(), a)
	u.addClause(tag, v.Not(), b)
	u.addClause(tag, v, a.Not(), b.Not())
	return v
}

// MkAndAux is mkAnd with an auxiliary tag, for clients (EMM) that build
// helper gates.
func (u *Unroller) MkAndAux(a, b sat.Lit, tag Tag) sat.Lit { return u.mkAnd(a, b, tag) }

// MkOrAux builds a disjunction gate.
func (u *Unroller) MkOrAux(a, b sat.Lit, tag Tag) sat.Lit {
	return u.mkAnd(a.Not(), b.Not(), tag).Not()
}

// PropertyLit returns the CNF literal of property p at frame t.
func (u *Unroller) PropertyLit(p int, t int) sat.Lit {
	return u.Lit(u.N.Props[p].OK, t)
}

// AssertConstraints adds the netlist's environment constraints for frame t
// (idempotent per frame).
func (u *Unroller) AssertConstraints(t int) {
	f := u.frameAt(t)
	if f.constrained {
		return
	}
	f.constrained = true
	for _, c := range u.N.Constraints {
		lit := u.Lit(c, t)
		u.addClause(MkTag(TagConstraint, t, 0), lit)
	}
}

// stateVector returns the CNF literals of all non-abstracted latches at
// frame t (building them if needed).
func (u *Unroller) stateVector(t int) []sat.Lit {
	var out []sat.Lit
	for _, l := range u.N.Latches {
		if u.Abstracted[l.Node] {
			continue
		}
		out = append(out, u.nodeLit(l.Node, t))
	}
	return out
}

// LoopFreeLit returns a CNF literal that, when assumed, activates the
// loop-free-path constraint LFP_depth of the paper's BMC-1/BMC-3: the
// states at frames 0..depth are pairwise distinct. The constraint is
// demand-driven. This call builds only the activation chain
// lfp[i] → lfp[i-1] and the state (and, under MemAwareLFP, write-activity)
// literals the pairs would compare; the distinctness constraint of a frame
// pair is added by RefineLoopFree once a model shows that pair repeating a
// state. A SAT answer under this literal is therefore final only after
// RefineLoopFree reports no new pair. Only the "assume positively"
// direction is encoded.
func (u *Unroller) LoopFreeLit(depth int) sat.Lit {
	if u.stateless() {
		// Any two frames have equal (empty) state, so no loop-free path
		// of length ≥ 1 exists.
		if depth == 0 {
			return u.TrueLit()
		}
		return u.FalseLit()
	}
	for len(u.lfp) <= depth {
		i := len(u.lfp)
		tag := MkTag(TagLFP, i, 0)
		v := u.FreshVar()
		if i == 0 {
			// A single state is trivially loop-free.
			u.addClause(tag, v)
		} else {
			// v -> lfp[i-1]
			u.addClause(tag, v.Not(), u.lfp[i-1])
			// The model must carry every value a frame-i pair compares.
			if i == 1 {
				u.stateVector(0)
			}
			u.stateVector(i)
			if u.MemAwareLFP {
				u.writeAnyLit(i - 1)
			}
		}
		u.lfp = append(u.lfp, v)
		u.lfpPaired = append(u.lfpPaired, make([]bool, i))
	}
	return u.lfp[depth]
}

// RefineLoopFree checks the solver's model from a SAT answer under
// LoopFreeLit(depth) against LFP_depth and returns how many pair
// constraints it added. For every not-yet-encoded frame pair a < b ≤ depth
// whose latch states the model makes equal (and, under MemAwareLFP, with
// no write fired at frames a..b-1) it adds the pair's constraint
//
//	lfp[b] → (s_a ≠ s_b ∨ writeAny(a) ∨ ... ∨ writeAny(b-1)),
//
// which the model violates. A zero return means the model is loop-free
// on every pair, so the SAT answer stands against the full constraint.
// The pair clauses are a subset of the full encoding (plus fresh
// difference variables), so an UNSAT answer over them is UNSAT over the
// full encoding too.
func (u *Unroller) RefineLoopFree(depth int) int {
	if u.stateless() || depth == 0 {
		return 0 // no frame pairs
	}
	// Per-frame model states, plus prefix counts of fired write frames
	// (writes[b]-writes[a] > 0 iff a write fired at frames a..b-1).
	states := make([][]bool, depth+1)
	writes := make([]int, depth+1)
	for t := 0; t <= depth; t++ {
		sv := u.stateVector(t)
		states[t] = make([]bool, len(sv))
		for j, l := range sv {
			states[t][j] = u.S.LitValue(l) == sat.True
		}
		if t > 0 {
			writes[t] = writes[t-1]
			if u.MemAwareLFP && u.S.LitValue(u.writeAnyLit(t-1)) == sat.True {
				writes[t]++
			}
		}
	}
	added := 0
	for b := 1; b <= depth; b++ {
		for a := 0; a < b; a++ {
			if u.lfpPaired[b][a] || writes[b] != writes[a] || !slices.Equal(states[a], states[b]) {
				continue
			}
			u.lfpPaired[b][a] = true
			tag := MkTag(TagLFP, b, 0)
			d := u.neqVector(u.stateVector(a), u.stateVector(b), tag)
			// lfp[b] -> (states differ ∨ a write changed memory in between).
			cl := []sat.Lit{u.lfp[b].Not(), d}
			if u.MemAwareLFP {
				for j := a; j < b; j++ {
					cl = append(cl, u.writeAnyLit(j))
				}
			}
			u.addClause(tag, cl...)
			added++
		}
	}
	return added
}

// stateless reports whether the loop-free-path constraint compares no
// state at all: the design has no latches, and memory writes do not count
// as state changes. A latch-free design with memories under MemAwareLFP is
// not stateless — a write between two frames makes them distinct, so a
// write-then-read violation needs a loop-free path of length 1.
func (u *Unroller) stateless() bool { return len(u.N.Latches) == 0 && !u.MemAwareLFP }

// writeAnyLit returns (building lazily) a literal that holds when any
// memory write port is enabled at frame t.
func (u *Unroller) writeAnyLit(t int) sat.Lit {
	for len(u.writeAny) <= t {
		f := len(u.writeAny)
		out := u.constFalse
		tag := MkTag(TagLFP, f, 1)
		for _, m := range u.N.Memories {
			for _, wp := range m.Writes {
				out = u.MkOrAux(out, u.Lit(wp.En, f), tag)
			}
		}
		u.writeAny = append(u.writeAny, out)
	}
	return u.writeAny[t]
}

// neqVector builds d with d -> (xs != ys), one implication direction only.
func (u *Unroller) neqVector(xs, ys []sat.Lit, tag Tag) sat.Lit {
	if len(xs) != len(ys) {
		panic("unroll: state vector width mismatch")
	}
	d := u.FreshVar()
	// d -> (x1⊕y1) ∨ ... ∨ (xn⊕yn), via per-bit difference variables.
	cl := make([]sat.Lit, 0, len(xs)+1)
	cl = append(cl, d.Not())
	for i := range xs {
		x, y := xs[i], ys[i]
		xi := u.FreshVar()
		// xi -> x≠y
		u.addClause(tag, xi.Not(), x, y)
		u.addClause(tag, xi.Not(), x.Not(), y.Not())
		cl = append(cl, xi)
	}
	u.addClause(tag, cl...)
	return d
}

// Built reports whether node id has already been unrolled at frame t.
func (u *Unroller) Built(id aig.NodeID, t int) bool {
	return t < len(u.frames) && u.frames[t].vals[id] != sat.LitUndef
}

// ShiftPhases moves the solver's saved phases one frame later: for t =
// depth down to 1, every node built at both frames t-1 and t gets, at frame
// t, the value its frame t-1 literal has under the saved phases. Signs are
// respected, so a node whose two frame literals differ in sign, or share a
// variable, still gets the value; unbuilt and constant entries are skipped,
// and frame 0 is only read. The descending order reads each source frame
// before it is overwritten. A window unrolled forward from a free state
// calls this before its depth-i query, so that the depth-(i-1) model,
// shifted, ends on frame i, where the query's bad state is. Phases are
// decision hints only: no answer can change, only the search effort.
func (u *Unroller) ShiftPhases(depth int) {
	for t := min(depth, len(u.frames)-1); t >= 1; t-- {
		src, dst := u.frames[t-1].vals, u.frames[t].vals
		for id, d := range dst {
			s := src[id]
			if d == sat.LitUndef || s == sat.LitUndef || u.IsConst(d) || u.IsConst(s) {
				continue
			}
			val := u.S.Phase(s.Var()) != s.Sign()
			u.S.SetPhase(d.Var(), val != d.Sign())
		}
	}
}

// InputLit returns the CNF literal of a primary input node at frame t.
func (u *Unroller) InputLit(id aig.NodeID, t int) sat.Lit { return u.nodeLit(id, t) }

// VecLits maps a design bus to CNF literals at frame t.
func (u *Unroller) VecLits(v []aig.Lit, t int) []sat.Lit {
	out := make([]sat.Lit, len(v))
	for i, l := range v {
		out[i] = u.Lit(l, t)
	}
	return out
}

// ModelVec decodes the solver model value of a design bus at frame t
// (0 for unassigned bits).
func (u *Unroller) ModelVec(v []aig.Lit, t int) uint64 {
	var out uint64
	for i, l := range v {
		if u.S.LitValue(u.Lit(l, t)) == sat.True {
			out |= 1 << uint(i)
		}
	}
	return out
}

// ModelBit decodes the model value of one design literal at frame t.
func (u *Unroller) ModelBit(l aig.Lit, t int) bool {
	return u.S.LitValue(u.Lit(l, t)) == sat.True
}
