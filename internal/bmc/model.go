// The Model layer: netlist → unrolled time frames and EMM constraints. It
// owns what the formula *says* — the two solver windows (forward, which
// also hosts the counter-example queries, and backward), structural
// hashing and comparator memoization, abstraction application, per-depth
// frame extension, and witness extraction back into source-netlist
// coordinates.
// The Session layer (session.go) owns the solvers those windows are built
// over; the Strategy layer (strategy.go) decides which checks to run on
// them at each depth.

package bmc

import (
	"fmt"

	"emmver/internal/aig"
	"emmver/internal/core"
	"emmver/internal/sat"
	"emmver/internal/sim"
	"emmver/internal/unroll"
)

// newWindow builds one solver window: the unrolling in mode over a fresh
// session solver and, under an EMM engine on a design with memories, its
// EMM generator. Initialized windows host the forward termination check and
// the counter-example checks; the Free window hosts the backward
// (induction-step) check and starts in an arbitrary state, so its
// generator treats every memory as arbitrary-initialized (§4.2) — except
// memories with no write ports: a memory nothing ever writes keeps its
// declared contents in every reachable state, so the induction step may
// assume them (core.Generator.arbitraryInit).
//
// The engine picks the EMM encoding itself. A run without termination
// checks (bmc2, also under CheckManyParallel; CEGAR's concrete checks)
// instantiates its read-over-write axioms on demand
// (core.Generator.EnableLazy, refined in refineSolve): its only query is
// the counter-example check, which the relaxation answers with a fraction
// of the eager clauses. Runs with
// termination checks (bmc3, PBA phase 2) stay eager: made lazy,
// they measured slower on prove-qsort (EXPERIMENTS §S10), whose forward
// and backward queries answer SAT at almost every depth and so pay a
// model validation, often a refinement round, per answer.
//
// Cross-tag sharing (strash, comparator memoization) reuses clauses
// emitted under the first requester's tag. That is sound for verdicts,
// but PBA harvests clause tags from UNSAT cores to decide relevance —
// a shared clause would implicate only its first creator, so the
// abstraction could silently drop latches or EMM events the proof
// needs. Like init folding, both caches are therefore off while cores
// are being tracked (phase 2 of the PBA flow runs without opt.pba and
// keeps full sharing), and so is lazy instantiation: the cores must see
// the full set of eagerly tagged EMM clauses (§4.3). The eq. 1 ablation
// (DisableExclusivity) is eager too: it measures the paper's eager
// encoding without the eq. 4 chains (EXPERIMENTS A2).
func (e *engine) newWindow(mode unroll.Mode) (*sat.Solver, *unroll.Unroller, *core.Generator) {
	opt, n := e.opt, e.n
	s := e.newSolver()
	if opt.pba && mode == unroll.Initialized {
		s.EnableProofTracing()
	}
	u := unroll.New(n, s, mode)
	u.NoStrash = opt.DisableStrash || opt.pba
	u.FoldInits = !opt.pba
	u.MemAwareLFP = len(n.Memories) > 0 && !opt.pureLatchLFP
	u.AttachObs(opt.Obs)
	if opt.abs != nil {
		for id := range opt.abs.FreeLatches {
			u.Abstracted[id] = true
		}
	}
	if !e.mode.emm || len(n.Memories) == 0 {
		return s, u, nil
	}
	arb := mode == unroll.Free
	g := core.NewGenerator(u, arb)
	g.AttachObs(opt.Obs)
	if opt.DisableEMMMemo || opt.pba {
		g.DisableComparatorMemo()
	}
	if opt.disableEq6 {
		g.DisableInitConsistency()
	}
	if opt.DisableExclusivity {
		g.DisableExclusivity()
	} else if !e.mode.proofs && !opt.pba && !opt.eagerEMM {
		g.EnableLazy()
	}
	e.applyMemAbstraction(g)
	return s, u, g
}

func (e *engine) applyMemAbstraction(g *core.Generator) {
	if e.opt.abs == nil {
		return
	}
	for mi := range e.opt.abs.MemEnabled {
		g.SetMemoryEnabled(mi, e.opt.abs.MemEnabled[mi])
		for r, on := range e.opt.abs.ReadEnabled[mi] {
			g.SetReadPortEnabled(mi, r, on)
		}
		for w, on := range e.opt.abs.WriteEnabled[mi] {
			g.SetWritePortEnabled(mi, w, on)
		}
	}
}

// window is one solver with the unrolling and EMM generator (nil without
// EMM constraints) built over it.
type window struct {
	s *sat.Solver
	u *unroll.Unroller
	g *core.Generator
}

// windows lists the engine's windows: forward, plus backward with
// termination checks.
func (e *engine) windows() []window {
	ws := []window{{e.fs, e.fu, e.fg}}
	if e.bs != nil {
		ws = append(ws, window{e.bs, e.bu, e.bg})
	}
	return ws
}

// prepareDepth extends every window's unrolling and EMM constraints to
// depth i.
func (e *engine) prepareDepth(i int) {
	for _, w := range e.windows() {
		if w.g != nil {
			w.g.AddUpTo(i)
		}
		w.u.AssertConstraints(i)
	}
}

// publishObs flushes the per-depth observability deltas (the unrollers
// publish at depth boundaries; the solvers publish per Solve call and the
// EMM generators per frame on their own) and raises the depth high-water
// gauge. No-op without an attached registry.
func (e *engine) publishObs(i int) {
	for _, w := range e.windows() {
		w.u.PublishObs()
	}
	e.obsDepth.Max(int64(i))
}

// emmClausesCum is the cumulative EMM clause count of the forward window
// (Sizes().Clauses() + InitClauses), the figure per-depth trace events
// report so a journal can be reconciled against Result.Stats.EMM.
func (e *engine) emmClausesCum() int {
	if e.fg == nil {
		return 0
	}
	sz := e.fg.Sizes()
	return sz.Clauses() + sz.InitClauses
}

// extractWitness decodes the satisfying model (on the forward
// window, which hosts the counter-example queries) into a replayable trace.
func (e *engine) extractWitness(depth int) *Witness {
	w := &Witness{Length: depth}
	for f := 0; f <= depth; f++ {
		in := make(map[aig.NodeID]bool)
		for _, id := range e.n.Inputs {
			if e.fu.Built(id, f) {
				in[id] = e.fu.ModelBit(aig.MkLit(id, false), f)
			}
		}
		w.Inputs = append(w.Inputs, in)
	}
	w.InitLatches = make(map[aig.NodeID]bool)
	for _, l := range e.n.Latches {
		if l.Init == aig.InitX && e.fu.Built(l.Node, 0) {
			w.InitLatches[l.Node] = e.fu.ModelBit(aig.MkLit(l.Node, false), 0)
		}
	}
	// Arbitrary-init memory contents: every enabled read that hit no
	// in-window write pins the initial word at its address. Frames beyond
	// depth (a reused engine may have built them) are unconstrained here
	// and are skipped.
	if e.fg != nil {
		w.MemInit = e.fg.MemInit(depth)
	} else {
		for range e.n.Memories {
			w.MemInit = append(w.MemInit, map[int]uint64{})
		}
	}
	return w
}

// Witness is a counter-example trace: per-frame input values plus the
// initial values of unconstrained latches and arbitrary-init memory words
// the trace depends on.
type Witness struct {
	Length      int // the property is violated at this frame
	Inputs      []map[aig.NodeID]bool
	InitLatches map[aig.NodeID]bool
	MemInit     []map[int]uint64 // per memory: address -> initial word
}

// FormatFrame renders one frame's input assignment using the design's
// declared input names, for human-readable counter-example dumps.
func (w *Witness) FormatFrame(n *aig.Netlist, f int) string {
	if f < 0 || f >= len(w.Inputs) {
		return ""
	}
	out := ""
	for _, id := range n.Inputs {
		name := n.InputName(id)
		if name == "" {
			name = fmt.Sprintf("i%d", id)
		}
		v := 0
		if w.Inputs[f][id] {
			v = 1
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", name, v)
	}
	return out
}

// Replay simulates the witness on the concrete design (real memory
// arrays) and returns an error unless the property fails at frame Length
// with all environment constraints satisfied along the trace.
func (w *Witness) Replay(n *aig.Netlist, prop int) error {
	s := sim.New(n)
	for id, v := range w.InitLatches {
		s.SetLatch(id, v)
	}
	for mi, words := range w.MemInit {
		for addr, word := range words {
			s.SetMemWord(mi, addr, word)
		}
	}
	for f := 0; f <= w.Length; f++ {
		res := s.Step(w.Inputs[f])
		if !res.ConstraintsOK {
			return fmt.Errorf("constraints violated at frame %d", f)
		}
		if f == w.Length {
			if res.PropOK[prop] {
				return fmt.Errorf("property %d holds at frame %d; witness is spurious", prop, f)
			}
		}
	}
	return nil
}
