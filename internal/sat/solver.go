package sat

import (
	"slices"
	"sort"

	"emmver/internal/obs"
)

// Solver is an incremental CDCL SAT solver. The zero value is not usable;
// construct with New.
//
// Typical use:
//
//	s := sat.New()
//	v := s.NewVar()
//	s.AddClause(sat.PosLit(v))
//	if s.Solve() == sat.Sat { _ = s.Value(v) }
//
// Clauses may be added between Solve calls. Solve accepts assumption
// literals; after an Unsat answer under assumptions, FailedAssumptions
// reports a subset of assumptions sufficient for unsatisfiability, and (when
// proof tracing is enabled) Core reports provenance tags of a sufficient
// subset of original clauses.
//
// Internally the solver is built for cache locality: clause literals live in
// one flat arena addressed by 4-byte crefs (see arena.go), watchers carry
// blocking literals, and binary clauses propagate through dedicated
// implication lists that never touch the clause store.
type Solver struct {
	ok bool // false once the clause database is UNSAT at level 0

	db      clauseDB
	clauses []cref // original problem clauses
	learnts []cref

	watches    [][]watcher    // literal -> watch list (clauses of size >= 3)
	binWatches [][]binWatcher // literal -> binary implication list
	assigns    []LBool        // variable assignment
	levels     []int32        // decision level of each assigned variable
	reasons    []cref         // antecedent clause of each implied variable
	polarity   []bool         // saved phase per variable
	decider    []bool         // whether the variable may be picked as a decision

	trail    []Lit
	trailLim []int
	qhead    int

	order  *varOrder // decision heap; holds the variable activities
	varInc float64
	claInc float32

	seen           []byte
	analyzeScratch []Lit
	addTmp         []Lit // scratch for AddClause normalization

	model         []LBool
	conflictAssum []Lit // failed assumptions from the last Unsat answer

	ema emaState // glue-EMA restart state; see restart.go

	// LBD machinery: a per-level stamp array for counting distinct decision
	// levels in a clause, and live clause counts per learnt tier.
	lbdStamp []uint32
	lbdGen   uint32
	nTier    [3]int
	localMax int // reduceDB fires when the local tier outgrows this

	// Proof tracing.
	trace      bool
	proof      proofStore
	finalChain []int32 // antecedents of the final (empty) conflict
	rootCause  []int32 // chain when AddClause itself hit UNSAT

	// Budgets.
	ConflictBudget int64       // ≤0 means unlimited
	Interrupt      func() bool // polled at a bounded stride; returning true aborts Solve with Unknown

	interrupted bool   // propagate observed Interrupt firing mid-queue
	pollTick    uint32 // search-loop iterations since the last Interrupt poll

	stats Stats

	// Observability (AttachObs): registry counters the solver publishes
	// cumulative-stat deltas into once per Solve call and on demand via
	// PublishObs. Nil counters make publication a no-op.
	obsAttached  bool
	obsPub       Stats // cumulative values already published
	obsPubNC     int   // NumClauses already published
	obsPubNV     int   // NumVars already published
	obsSolves    *obs.Counter
	obsConfl     *obs.Counter
	obsProps     *obs.Counter
	obsBinProps  *obs.Counter
	obsDecs      *obs.Counter
	obsRestarts  *obs.Counter
	obsRestBlock *obs.Counter
	obsReduces   *obs.Counter
	obsLAdded    *obs.Counter
	obsLDeleted  *obs.Counter
	obsLBDSum    *obs.Counter
	obsClauses   *obs.Counter
	obsVars      *obs.Counter
	obsTierCore  *obs.Gauge
	obsTierMid   *obs.Gauge
	obsTierLocal *obs.Gauge
}

// Stats holds cumulative search statistics.
type Stats struct {
	Decisions    int64
	Propagations int64
	// BinPropagations counts propagations served by the binary implication
	// lists (a subset of Propagations' enqueue sources, reported separately
	// because they bypass the clause store entirely).
	BinPropagations int64
	Conflicts       int64
	Restarts        int64
	// ReduceDBs counts learnt-database reduction sweeps.
	ReduceDBs      int64
	LearntsAdded   int64
	LearntsDeleted int64
	MaxVar         int
	// RestartsBlocked counts restarts postponed because the trail was
	// unusually deep.
	RestartsBlocked int64
	// LBDSum is the total glue over all learnt clauses at record time, so
	// LBDSum/LearntsAdded is the mean learnt LBD.
	LBDSum int64
}

// New constructs an empty solver.
func New() *Solver {
	return &Solver{
		ok:       true,
		order:    newVarOrder(),
		varInc:   1.0,
		claInc:   1.0,
		localMax: 2000,
	}
}

// EnableProofTracing turns on resolution-chain recording. It must be called
// before any clause is added.
func (s *Solver) EnableProofTracing() {
	if len(s.clauses) > 0 || len(s.trail) > 0 {
		panic("sat: EnableProofTracing must be called before adding clauses")
	}
	s.trace = true
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of original clauses currently attached.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// ClauseAt returns a copy of the i-th stored original clause (literal
// order is internal and may differ from the order given to AddClause).
func (s *Solver) ClauseAt(i int) []Lit {
	return append([]Lit(nil), s.db.lits(s.clauses[i])...)
}

// Stats returns cumulative statistics.
func (s *Solver) Stats() Stats { return s.stats }

// AttachObs binds the solver to an observer's metrics registry under the
// canonical solver.* names. Several solvers may attach to one registry;
// each publishes deltas, so the registry holds fleet-wide totals while
// per-solver breakdowns stay available through Stats. Publication happens
// at the end of every Solve call and on PublishObs — never inside the
// search loop, so attaching costs nothing measurable.
func (s *Solver) AttachObs(o *obs.Observer) {
	reg := o.Registry()
	if reg == nil {
		return
	}
	s.obsAttached = true
	s.obsSolves = reg.Counter(obs.MSolves)
	s.obsConfl = reg.Counter(obs.MConflicts)
	s.obsProps = reg.Counter(obs.MPropagations)
	s.obsBinProps = reg.Counter(obs.MBinPropagations)
	s.obsDecs = reg.Counter(obs.MDecisions)
	s.obsRestarts = reg.Counter(obs.MRestarts)
	s.obsRestBlock = reg.Counter(obs.MRestartsBlocked)
	s.obsReduces = reg.Counter(obs.MReduceDBs)
	s.obsLAdded = reg.Counter(obs.MLearntsAdded)
	s.obsLDeleted = reg.Counter(obs.MLearntsDeleted)
	s.obsLBDSum = reg.Counter(obs.MLBDSum)
	s.obsClauses = reg.Counter(obs.MSolverClauses)
	s.obsVars = reg.Counter(obs.MSolverVars)
	s.obsTierCore = reg.Gauge(obs.MTierCore)
	s.obsTierMid = reg.Gauge(obs.MTierMid)
	s.obsTierLocal = reg.Gauge(obs.MTierLocal)
}

// PublishObs pushes the not-yet-published part of the cumulative counters
// into the attached registry (no-op when detached). The BMC engine calls
// it at depth boundaries to cover clauses added between Solve calls.
func (s *Solver) PublishObs() {
	if !s.obsAttached {
		return
	}
	cur := s.stats
	s.obsConfl.Add(cur.Conflicts - s.obsPub.Conflicts)
	s.obsProps.Add(cur.Propagations - s.obsPub.Propagations)
	s.obsBinProps.Add(cur.BinPropagations - s.obsPub.BinPropagations)
	s.obsDecs.Add(cur.Decisions - s.obsPub.Decisions)
	s.obsRestarts.Add(cur.Restarts - s.obsPub.Restarts)
	s.obsRestBlock.Add(cur.RestartsBlocked - s.obsPub.RestartsBlocked)
	s.obsReduces.Add(cur.ReduceDBs - s.obsPub.ReduceDBs)
	s.obsLAdded.Add(cur.LearntsAdded - s.obsPub.LearntsAdded)
	s.obsLDeleted.Add(cur.LearntsDeleted - s.obsPub.LearntsDeleted)
	s.obsLBDSum.Add(cur.LBDSum - s.obsPub.LBDSum)
	// Tier sizes are instantaneous, not cumulative: publish as high-water
	// gauges so a fleet of solvers reports its largest tiers.
	s.obsTierCore.Max(int64(s.nTier[tierCore]))
	s.obsTierMid.Max(int64(s.nTier[tierMid]))
	s.obsTierLocal.Max(int64(s.nTier[tierLocal]))
	s.obsPub = cur
	nc, nv := s.NumClauses(), s.NumVars()
	s.obsClauses.Add(int64(nc - s.obsPubNC))
	s.obsVars.Add(int64(nv - s.obsPubNV))
	s.obsPubNC, s.obsPubNV = nc, nv
}

// NewVar allocates a fresh variable.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assigns))
	s.assigns = append(s.assigns, Undef)
	s.levels = append(s.levels, 0)
	s.reasons = append(s.reasons, crefUndef)
	s.polarity = append(s.polarity, true) // default phase: false
	s.decider = append(s.decider, true)
	s.watches = append(s.watches, nil, nil)
	s.binWatches = append(s.binWatches, nil, nil)
	s.seen = append(s.seen, 0)
	s.order.add(v)
	s.stats.MaxVar = len(s.assigns)
	return v
}

// SetDecidable controls whether v may be chosen as a decision variable.
// Non-decidable variables can still be assigned by propagation.
func (s *Solver) SetDecidable(v Var, d bool) { s.decider[v] = d }

// Phase reports v's saved phase: the value the next decision on v assigns
// (true for the positive literal). Phase saving records the value v held
// when backtracking last unassigned it, so after a Sat answer every
// variable's phase is its model value.
func (s *Solver) Phase(v Var) bool { return !s.polarity[v] }

// SetPhase overrides v's saved phase. Phases only steer decisions, so no
// setting can change a Solve answer, only the search that reaches it.
func (s *Solver) SetPhase(v Var, val bool) { s.polarity[v] = !val }

// Value returns the value of v in the most recent satisfying model.
func (s *Solver) Value(v Var) LBool {
	if int(v) >= len(s.model) {
		return Undef
	}
	return s.model[v]
}

// LitValue returns the model value of literal l.
func (s *Solver) LitValue(l Lit) LBool { return s.Value(l.Var()).XorSign(l.Sign()) }

// FailedAssumptions returns the subset of the last Solve's assumptions that
// was used to derive Unsat. Valid only immediately after an Unsat answer.
func (s *Solver) FailedAssumptions() []Lit { return s.conflictAssum }

// value is the current (search-time) value of a literal.
func (s *Solver) value(l Lit) LBool { return s.assigns[l.Var()].XorSign(l.Sign()) }

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds an untagged clause. It returns false if the clause database
// has become unsatisfiable at level 0.
func (s *Solver) AddClause(lits ...Lit) bool { return s.AddClauseTagged(-1, lits) }

// AddClauseTagged adds a clause carrying a provenance tag used by Core.
// It returns false if the clause database has become unsatisfiable.
func (s *Solver) AddClauseTagged(tag int64, lits []Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		s.cancelUntil(0)
	}
	// Normalize: sort, drop duplicates, detect tautologies. The scratch
	// buffer keeps clause addition allocation-free (the literals are copied
	// into the arena on alloc).
	tmp := append(s.addTmp[:0], lits...)
	if len(tmp) > 32 {
		slices.Sort(tmp)
	} else {
		sortLits(tmp)
	}
	out := tmp[:0]
	var prev Lit = LitUndef
	for _, l := range tmp {
		if int(l.Var()) >= len(s.assigns) {
			panic("sat: literal references unallocated variable")
		}
		if l == prev {
			continue
		}
		if prev != LitUndef && l == prev.Not() {
			s.addTmp = tmp
			return true // tautology
		}
		if !s.trace {
			// Without tracing we may freely strengthen at level 0.
			if s.value(l) == True {
				s.addTmp = tmp
				return true
			}
			if s.value(l) == False {
				continue
			}
		} else if s.value(l) == True && s.levels[l.Var()] == 0 {
			s.addTmp = tmp
			return true // satisfied at level 0: redundant, safe to drop
		}
		out = append(out, l)
		prev = l
	}

	// Count non-false literals and move them to the front for watching.
	nonFalse := 0
	for i, l := range out {
		if s.value(l) != False {
			out[i], out[nonFalse] = out[nonFalse], out[i]
			nonFalse++
		}
	}

	id := int32(-1)
	if s.trace {
		id = s.proof.addOriginal(tag)
	}
	c := s.db.alloc(out, false, id)
	s.addTmp = tmp

	switch {
	case nonFalse == 0:
		// Conflict at level 0: the database is UNSAT.
		s.ok = false
		if s.trace {
			s.rootCause = s.levelZeroChain(c)
		}
		if s.db.size(c) > 0 {
			s.clauses = append(s.clauses, c)
		}
		return false
	case nonFalse == 1:
		// Effectively a unit clause.
		s.clauses = append(s.clauses, c)
		s.uncheckedEnqueue(s.db.lits(c)[0], c)
		if confl := s.propagate(); confl != crefUndef {
			s.ok = false
			if s.trace {
				s.rootCause = s.levelZeroChain(confl)
			}
			return false
		}
		return true
	default:
		s.clauses = append(s.clauses, c)
		s.attach(c)
		return true
	}
}

// sortLits is an insertion sort, the fastest for the short clauses the
// engines add; AddClauseTagged sends a long one (DIMACS input can carry
// clauses of any length) to slices.Sort, whose output is the same.
func sortLits(lits []Lit) {
	for i := 1; i < len(lits); i++ {
		l := lits[i]
		j := i - 1
		for j >= 0 && lits[j] > l {
			lits[j+1] = lits[j]
			j--
		}
		lits[j+1] = l
	}
}

// attach hooks a clause into propagation: binary clauses go to the
// implication lists, longer clauses to the two-watched-literal scheme.
func (s *Solver) attach(c cref) {
	ls := s.db.lits(c)
	if len(ls) == 2 {
		s.binWatches[ls[0].Not()] = append(s.binWatches[ls[0].Not()], binWatcher{imp: ls[1], c: c})
		s.binWatches[ls[1].Not()] = append(s.binWatches[ls[1].Not()], binWatcher{imp: ls[0], c: c})
		return
	}
	w0, w1 := ls[0].Not(), ls[1].Not()
	s.watches[w0] = append(s.watches[w0], watcher{c: c, blocker: ls[1]})
	s.watches[w1] = append(s.watches[w1], watcher{c: c, blocker: ls[0]})
}

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	s.assigns[v] = True.XorSign(l.Sign())
	s.levels[v] = int32(s.decisionLevel())
	s.reasons[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation and returns a conflicting clause, or
// crefUndef if no conflict was found. For each trail literal the binary
// implication list is scanned first (no clause-store access at all), then
// the watch lists of longer clauses with blocking-literal skips. Interrupt
// is polled every 2048 propagations so that portfolio cancellation and
// timeouts land within milliseconds even inside one long propagation pass;
// an early stop sets s.interrupted and leaves the remaining queue for the
// next call.
func (s *Solver) propagate() cref {
	// Propagation adds no variables or clauses, so the assignment, arena
	// and header slices stay put for the whole call; hold them in locals.
	assigns := s.assigns
	arena, hdr := s.db.arena, s.db.hdr
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		if s.Interrupt != nil && s.stats.Propagations&2047 == 0 && s.Interrupt() {
			s.interrupted = true
			return crefUndef
		}
		// Binary implications: p became true, so each imp is forced.
		for _, bw := range s.binWatches[p] {
			switch assigns[bw.imp.Var()].XorSign(bw.imp.Sign()) {
			case False:
				s.qhead = len(s.trail)
				return bw.c
			case Undef:
				s.stats.BinPropagations++
				s.uncheckedEnqueue(bw.imp, bw.c)
			}
		}
		ws := s.watches[p]
		kept := ws[:0]
		n := len(ws)
	nextWatcher:
		for wi := 0; wi < n; wi++ {
			w := ws[wi]
			if assigns[w.blocker.Var()].XorSign(w.blocker.Sign()) == True {
				kept = append(kept, w)
				continue
			}
			c := w.c
			h := &hdr[c]
			if h.flags&flagDel != 0 {
				continue // dropped clause: let the watcher disappear
			}
			lits := arena[h.off : h.off+h.size : h.off+h.size]
			// Ensure the false literal is at position 1.
			notP := p.Not()
			if lits[0] == notP {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			firstVal := assigns[first.Var()].XorSign(first.Sign())
			if first != w.blocker && firstVal == True {
				kept = append(kept, watcher{c: c, blocker: first})
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if l := lits[k]; assigns[l.Var()].XorSign(l.Sign()) != False {
					lits[1], lits[k] = l, lits[1]
					wl := l.Not()
					s.watches[wl] = append(s.watches[wl], watcher{c: c, blocker: first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c: c, blocker: first})
			if firstVal == False {
				// Conflict: restore remaining watchers and bail.
				kept = append(kept, ws[wi+1:n]...)
				s.watches[p] = kept
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = kept
	}
	return crefUndef
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.assigns[v] = Undef
		s.polarity[v] = s.trail[i].Sign()
		s.reasons[v] = crefUndef
		if !s.order.contains(v) {
			s.order.insert(v)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v Var) {
	if s.order.bump(v, s.varInc) {
		s.varInc *= rescaleFactor
	}
}

// The 0.99 decay (vs MiniSat's 0.95) keeps the activity ordering stable
// across the much more frequent adaptive restarts: with glue-driven
// restarting the solver revisits the same prefix often, and a fast decay
// makes it re-derive the ordering from scratch each time.
func (s *Solver) decayVar() { s.varInc /= 0.99 }

func (s *Solver) bumpClause(c cref) {
	h := &s.db.hdr[c]
	h.act += s.claInc
	if h.act > 1e30 {
		for _, lc := range s.learnts {
			s.db.hdr[lc].act *= 1e-30
		}
		s.claInc *= 1e-30
	}
}

func (s *Solver) decayClause() { s.claInc /= 0.999 }

// analyze performs first-UIP conflict analysis. It returns the learnt clause
// literals (asserting literal first), the backtrack level, and — when
// tracing — the resolution chain of clause IDs.
func (s *Solver) analyze(confl cref) (learnt []Lit, btLevel int, chain []int32) {
	learnt = append(s.analyzeScratch[:0], LitUndef) // reserve slot 0
	seen := s.seen
	counter := 0
	p := LitUndef
	idx := len(s.trail) - 1

	for {
		if s.trace {
			chain = append(chain, s.db.id(confl))
		}
		// Skip the resolved literal by identity: binary reasons come from
		// the implication lists, where the implied literal is not
		// necessarily stored at position 0.
		cl := s.db.lits(confl)
		if s.db.isLearnt(confl) {
			s.bumpClause(confl)
			// Glucose's dynamic glue update: a clause used in analysis
			// refreshes its disuse stamp, and if its LBD has improved it is
			// promoted toward a safer tier.
			h := &s.db.hdr[confl]
			h.touch = int32(s.stats.Conflicts)
			if int(h.lbd) > coreLBD {
				if nl := s.computeLBD(cl); nl < int(h.lbd) {
					h.lbd = uint16(nl)
					if nt := tierForLBD(nl); nt > h.tier {
						s.nTier[h.tier]--
						s.nTier[nt]++
						h.tier = nt
					}
				}
			}
		}
		for _, q := range cl {
			if q == p {
				continue
			}
			v := q.Var()
			if seen[v] != 0 {
				continue
			}
			lv := int(s.levels[v])
			if lv == 0 {
				// Dropping a level-0 literal resolves against its
				// level-0 derivation; record a deferred marker.
				if s.trace {
					chain = append(chain, markLevelZero(v))
				}
				continue
			}
			seen[v] = 1
			s.bumpVar(v)
			if lv >= s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal to resolve on.
		for seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.reasons[p.Var()]
		seen[p.Var()] = 0
		counter--
		if counter <= 0 {
			break
		}
	}
	learnt[0] = p.Not()

	// Conflict-clause minimization (self-subsumption with level-0 removal).
	learnt, chain = s.minimize(learnt, chain)

	// Compute backtrack level and move the second-highest literal to slot 1.
	if len(learnt) == 1 {
		btLevel = 0
	} else {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.levels[learnt[i].Var()] > s.levels[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.levels[learnt[1].Var()])
	}
	for _, l := range learnt {
		seen[l.Var()] = 0
	}
	s.analyzeScratch = learnt[:0]
	return learnt, btLevel, chain
}

// minimize removes literals from the learnt clause that are implied by the
// others via their reason clauses, extending the proof chain accordingly.
func (s *Solver) minimize(learnt []Lit, chain []int32) ([]Lit, []int32) {
	seen := s.seen
	for _, l := range learnt {
		seen[l.Var()] = 1
	}
	out := learnt[:1]
	for _, l := range learnt[1:] {
		r := s.reasons[l.Var()]
		if r == crefUndef {
			out = append(out, l)
			continue
		}
		redundant := true
		rl := s.db.lits(r)
		for _, q := range rl {
			if q == l.Not() {
				continue
			}
			if seen[q.Var()] != 0 {
				continue
			}
			if s.levels[q.Var()] == 0 {
				continue
			}
			redundant = false
			break
		}
		if redundant {
			if s.trace {
				chain = append(chain, s.db.id(r))
				for _, q := range rl {
					if q != l.Not() && seen[q.Var()] == 0 && s.levels[q.Var()] == 0 {
						chain = append(chain, markLevelZero(q.Var()))
					}
				}
			}
			seen[l.Var()] = 0 // removed: do not let later literals rely on it
			continue
		}
		out = append(out, l)
	}
	for _, l := range out {
		seen[l.Var()] = 0
	}
	return out, chain
}

// levelZeroChain records the derivation of a conflict at level 0: the
// conflicting clause plus deferred markers for its (level-0) literals.
func (s *Solver) levelZeroChain(confl cref) []int32 {
	chain := []int32{s.db.id(confl)}
	for _, q := range s.db.lits(confl) {
		chain = append(chain, markLevelZero(q.Var()))
	}
	return chain
}

// computeLBD counts the distinct non-zero decision levels among lits (the
// clause's glue). Levels survive backjumps untouched in s.levels, so calling
// this right after analyze — before or after cancelUntil — is equivalent.
func (s *Solver) computeLBD(lits []Lit) int {
	s.lbdGen++
	gen := s.lbdGen
	n := 0
	for _, l := range lits {
		lv := int(s.levels[l.Var()])
		if lv == 0 {
			continue
		}
		for lv >= len(s.lbdStamp) {
			s.lbdStamp = append(s.lbdStamp, 0)
		}
		if s.lbdStamp[lv] != gen {
			s.lbdStamp[lv] = gen
			n++
		}
	}
	return n
}

func (s *Solver) recordLearnt(lits []Lit, chain []int32) (cref, int) {
	id := int32(-1)
	if s.trace {
		id = s.proof.addLearnt(chain)
	}
	lbd := s.computeLBD(lits)
	c := s.db.alloc(lits, true, id)
	h := &s.db.hdr[c]
	if lbd > int(^uint16(0)) {
		h.lbd = ^uint16(0)
	} else {
		h.lbd = uint16(lbd)
	}
	h.tier = tierForLBD(lbd)
	h.touch = int32(s.stats.Conflicts)
	s.stats.LearntsAdded++
	s.stats.LBDSum += int64(lbd)
	if len(lits) >= 2 {
		s.nTier[h.tier]++
		s.learnts = append(s.learnts, c)
		s.attach(c)
		s.bumpClause(c)
	}
	return c, lbd
}

// locked reports whether c is the reason of its first (implied) literal and
// therefore must not be deleted while that assignment stands.
func (s *Solver) locked(c cref) bool {
	l := s.db.lits(c)[0]
	return s.value(l) == True && s.reasons[l.Var()] == c
}

// reduceDB is the three-tier learnt-database reduction. Core clauses
// (glue <= 2) are never touched; mid-tier clauses survive but are demoted
// to the local pool after midAgeLimit conflicts without being used in
// conflict analysis; the local pool is sorted by activity and its weakest
// half deleted. Binary learnts (glue <= 2 by construction, and high
// propagation value at 8 bytes of watch cost) and clauses that are the
// reason of a standing assignment are never deleted. When enough of the
// arena is garbage, the literal blocks are compacted in place.
func (s *Solver) reduceDB() {
	if len(s.learnts) < 2 {
		return
	}
	s.stats.ReduceDBs++
	db := &s.db
	now := int32(s.stats.Conflicts)
	var local []cref
	for _, c := range s.learnts {
		h := &db.hdr[c]
		if h.flags&flagDel != 0 {
			continue
		}
		if h.tier == tierMid && now-h.touch > midAgeLimit {
			h.tier = tierLocal
		}
		if h.tier == tierLocal {
			local = append(local, c)
		}
	}
	sort.Slice(local, func(i, j int) bool { return db.hdr[local[i]].act < db.hdr[local[j]].act })
	half := len(local) / 2
	for i, c := range local {
		if i >= half {
			break
		}
		if db.size(c) > 2 && !s.locked(c) {
			db.markDeleted(c) // watchers lazily dropped in propagate
			s.stats.LearntsDeleted++
		}
	}
	// Rebuild the live list and recount the tiers (the recount also absorbs
	// any drift from clauses attached outside recordLearnt, e.g. in tests).
	keep := s.learnts[:0]
	s.nTier = [3]int{}
	for _, c := range s.learnts {
		if db.isDeleted(c) {
			continue
		}
		keep = append(keep, c)
		s.nTier[db.hdr[c].tier]++
	}
	s.learnts = keep
	if db.shouldCompact() {
		db.compact()
	}
}

func (s *Solver) pickBranchVar() Var {
	for !s.order.empty() {
		v := s.order.pop()
		if s.assigns[v] == Undef && s.decider[v] {
			return v
		}
	}
	return VarUndef
}

// Solve searches for a satisfying assignment under the given assumptions.
func (s *Solver) Solve(assumps ...Lit) Status {
	if s.obsAttached {
		s.obsSolves.Inc()
		defer s.PublishObs()
	}
	s.model = nil
	s.conflictAssum = nil
	s.finalChain = nil
	if !s.ok {
		if s.trace {
			s.finalChain = s.rootCause
		}
		return Unsat
	}
	s.cancelUntil(0)
	s.interrupted = false
	if confl := s.propagate(); confl != crefUndef {
		s.ok = false
		if s.trace {
			s.rootCause = s.levelZeroChain(confl)
			s.finalChain = s.rootCause
		}
		return Unsat
	}
	if s.interrupted {
		s.interrupted = false
		return Unknown
	}

	var conflicts, sinceRestart int64

	for {
		// Poll the interrupt hook on a bounded stride of search-loop
		// iterations (decisions and conflicts alike), not only once per 64
		// conflicts: a solver stuck in a long decision streak must still
		// notice cancellation promptly.
		s.pollTick++
		if s.Interrupt != nil && s.pollTick&127 == 0 && s.Interrupt() {
			s.cancelUntil(0)
			return Unknown
		}
		confl := s.propagate()
		if s.interrupted {
			s.interrupted = false
			s.cancelUntil(0)
			return Unknown
		}
		if confl != crefUndef {
			conflicts++
			sinceRestart++
			s.stats.Conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				if s.trace {
					s.rootCause = s.levelZeroChain(confl)
					s.finalChain = s.rootCause
				}
				s.cancelUntil(0)
				return Unsat
			}
			learnt, btLevel, chain := s.analyze(confl)
			trailAtConflict := len(s.trail)
			// Do not backtrack past the assumptions unless forced to.
			s.cancelUntil(btLevel)
			c, lbd := s.recordLearnt(learnt, chain)
			if s.ema.update(lbd, trailAtConflict, sinceRestart >= emaMinConflicts) {
				s.stats.RestartsBlocked++
			}
			if s.value(learnt[0]) != Undef {
				panic("sat: asserting literal assigned after backjump")
			}
			s.uncheckedEnqueue(learnt[0], c)
			s.decayVar()
			s.decayClause()
			if s.ConflictBudget > 0 && conflicts > s.ConflictBudget {
				s.cancelUntil(0)
				return Unknown
			}
			continue
		}

		if sinceRestart >= emaMinConflicts && s.ema.shouldRestart() {
			// Restart, keeping assumptions intact by replaying them below.
			s.stats.Restarts++
			s.ema.onRestart()
			sinceRestart = 0
			s.cancelUntil(0)
		}
		if s.interrupted {
			s.interrupted = false
			s.cancelUntil(0)
			return Unknown
		}
		if s.nTier[tierLocal] > s.localMax {
			s.reduceDB()
			s.localMax += s.localMax / 10
		}

		// Re-establish assumptions as the first decisions.
		if s.decisionLevel() < len(assumps) {
			a := assumps[s.decisionLevel()]
			switch s.value(a) {
			case True:
				s.trailLim = append(s.trailLim, len(s.trail)) // dummy level
			case False:
				s.analyzeFinal(a)
				s.cancelUntil(0)
				return Unsat
			default:
				s.stats.Decisions++
				s.trailLim = append(s.trailLim, len(s.trail))
				s.uncheckedEnqueue(a, crefUndef)
			}
			continue
		}

		v := s.pickBranchVar()
		if v == VarUndef {
			s.model = append([]LBool(nil), s.assigns...)
			s.cancelUntil(0)
			return Sat
		}
		s.stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(MkLit(v, s.polarity[v]), crefUndef)
	}
}

// analyzeFinal computes the failed-assumption set and clause chain for an
// assumption literal a that is false under the current (assumption-level)
// assignment.
func (s *Solver) analyzeFinal(a Lit) {
	s.conflictAssum = []Lit{a}
	if r := s.reasons[a.Var()]; r != crefUndef {
		s.analyzeFinalLit(a, r)
		return
	}
	// a was directly contradicted by an earlier assumption decision.
	s.conflictAssum = append(s.conflictAssum, a.Not())
	s.finalChain = nil
}

// analyzeFinalLit walks implications backward from a conflicting implied
// literal, separating assumption decisions (reported in conflictAssum) from
// clauses (reported, when tracing, in finalChain).
func (s *Solver) analyzeFinalLit(a Lit, r cref) {
	s.conflictAssum = []Lit{a}
	var chain []int32
	seen := s.seen
	seen[a.Var()] = 1
	stack := []cref{r}
	var vars []Var
	vars = append(vars, a.Var())
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.trace {
			chain = append(chain, s.db.id(c))
		}
		for _, q := range s.db.lits(c) {
			v := q.Var()
			if seen[v] != 0 {
				continue
			}
			if s.value(q) != False {
				continue
			}
			seen[v] = 1
			vars = append(vars, v)
			if rr := s.reasons[v]; rr != crefUndef {
				stack = append(stack, rr)
			} else if s.levels[v] > 0 {
				// Assumption decision.
				s.conflictAssum = append(s.conflictAssum, q.Not())
			}
		}
	}
	for _, v := range vars {
		seen[v] = 0
	}
	s.finalChain = chain
}
