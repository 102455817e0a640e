// Package core implements Efficient Memory Modeling (EMM) — the paper's
// primary contribution. Instead of expanding each embedded memory into
// 2^AW × DW latches, the memory array is removed and, at every BMC analysis
// depth, CNF constraints over the retained memory interface signals enforce
// the data-forwarding semantics:
//
//	data read at depth k through read port r equals the data written at
//	depth j through write port w iff the addresses match, WE was active at
//	j, RE is active at k, and no intervening write hit the same address
//	(eq. 3 of the paper),
//
// using exclusive valid-read signal chains (eq. 4–5) in the hybrid
// clause/gate representation of §3, generalized to multiple memories with
// multiple read and write ports (§4.1). Arbitrary initial memory state is
// modeled precisely with fresh symbolic words plus the consistency
// constraints of eq. 6 (§4.2), which is what makes the model exact and
// therefore usable for the UNSAT (proof) side of SAT-based induction.
//
// One builder serves two policies. The frame builder registers each
// frame's read events; extend instantiates a read's forwarding levels,
// most recent write first, and complete adds its initial-state tail. The
// default eager policy completes every read at its frame (the
// EMM_Constraints procedure of Fig. 2); the lazy policy of lazy.go leaves
// reads pending and extends them on demand.
package core

import (
	"fmt"
	"slices"

	"emmver/internal/aig"
	"emmver/internal/obs"
	"emmver/internal/sat"
	"emmver/internal/unroll"
)

// Sizes tallies the EMM constraints emitted so far, split the way the paper
// reports them (§3, §4.1): CNF clauses for address comparison and read-data
// forwarding, 2-input gates for the exclusivity chains, and — separately —
// the arbitrary-initial-state machinery of §4.2.
type Sizes struct {
	AddrClauses     int // (4m+1)·kW·R per memory at depth k
	ReadDataClauses int // (2n·kW + 2n + 1)·R per memory at depth k
	Gates           int // 3·kW·R per memory at depth k; 2·kW·R under the direct eq. 1 encoding
	InitPairs       int // eq. 6 pair constraints
	InitClauses     int // clauses emitted for eq. 6 pairs
	AuxVars         int
	// CompMemoHits counts address comparators answered from the
	// memoization cache instead of being re-encoded. A hit emits no
	// clauses and bumps no per-kind counter, so the other fields keep
	// matching the paper's formulas for the comparators actually built.
	CompMemoHits int
	// SharedReads counts read events that duplicate an earlier port of the
	// same memory at the same frame (same enable, same address literals)
	// and were encoded as RE → RD = RD_twin alone: no chain, no initial
	// word, no eq. 6 pairs. Their 2·DW forwarding clauses are counted in
	// ReadDataClauses.
	SharedReads int
	// Lazy-EMM refinement accounting (the lazy policy only; zero for eager
	// runs). The clause/gate counters above keep tallying what is actually
	// emitted, so Clauses() reports the reduced on-demand constraint set.
	LazyReads     int // read events the lazy policy left pending for the oracle
	LazyAxioms    int // forwarding levels (read × write pairs) instantiated on demand
	LazyCompleted int // reads driven to their full chain + initial-state tail
}

// Clauses returns the paper's headline clause count (address comparison +
// read data), excluding the arbitrary-init machinery which the paper counts
// separately.
func (s Sizes) Clauses() int { return s.AddrClauses + s.ReadDataClauses }

// String renders the tally.
func (s Sizes) String() string {
	return fmt.Sprintf("%d clauses (%d addr, %d readdata), %d gates, %d init pairs (%d clauses), %d shared reads",
		s.Clauses(), s.AddrClauses, s.ReadDataClauses, s.Gates, s.InitPairs, s.InitClauses, s.SharedReads)
}

// Generator emits EMM constraints into an unroller, one analysis depth at a
// time (the EMM_Constraints procedure of Fig. 2/Fig. 3).
type Generator struct {
	u *unroll.Unroller

	// ForceArbitraryInit treats every written memory as
	// arbitrary-initialized, regardless of its declared init. Required when
	// the underlying unrolling window does not start at the design's
	// initial state (the backward/induction-step checks): reads of
	// locations not written inside the window must then be
	// arbitrary-but-consistent rather than the declared reset contents.
	// A memory with no write port keeps its declared init (arbitraryInit).
	forceArb bool

	memEnabled   []bool
	readEnabled  [][]bool
	writeEnabled [][]bool

	// eq6Disabled suppresses the cross-read consistency constraints of
	// §4.2. Exists to demonstrate (and regression-test) the paper's claim
	// that fresh variables alone over-approximate the initial state and
	// can break proofs.
	eq6Disabled bool

	// noExclusivity replaces the S exclusive valid-read signals of eq. 4
	// with a direct clause translation of the forwarding semantics
	// (eq. 1/eq. 3): each read-data clause then carries the whole
	// "no intervening write" disjunction instead of a single chain
	// literal (only the PS chain, which yields N, is still built).
	// Semantically equivalent, but the SAT solver loses the immediate
	// exclusivity propagation the paper highlights — the ablation
	// BenchmarkAblationExclusivity measures the difference.
	noExclusivity bool

	// noCompMemo disables comparator memoization (A/B measurement and
	// equivalence tests only), and with it read-event sharing (see
	// shareReads).
	noCompMemo bool

	// lazy selects the lazy policy: AddUpTo leaves each read event pending
	// instead of completing it, and the RefineLazy oracle extends it on
	// demand (see lazy.go).
	lazy bool

	// compMemo maps a normalized pair of address literal vectors to the E
	// literal of the comparator already encoded for it. The same physical
	// address buses recur across depths and read ports (every eq. 6 pair
	// re-compares read addresses, and a shared address bus makes the
	// forwarding comparators of later reads identical to earlier ones), so
	// depth k+1 only pays for its genuinely new frontier pairs.
	compMemo map[string]sat.Lit

	mems   []*memGen
	frames int // next depth to process

	sizes Sizes

	// Observability (AttachObs): emm.generate spans per processed depth
	// and per-constraint-family registry counters, published as deltas at
	// each depth so the live totals track Sizes exactly.
	obs      *obs.Observer
	obsAddr  *obs.Counter
	obsRD    *obs.Counter
	obsGates *obs.Counter
	obsIPair *obs.Counter
	obsICl   *obs.Counter
	obsMemo  *obs.Counter
	obsShare *obs.Counter
	obsPub   Sizes
}

type memGen struct {
	m *aig.Memory

	// wports lists the enabled write ports, fixed at frame 0. Their count
	// is the stride of the level ↔ (frame, port) mapping of writeAt.
	wports []*aig.WritePort

	// reads lists the memory's read events in creation order (frames
	// ascending, ports ascending within a frame). A shared read event (see
	// shareReads) is not listed: its twin stands for it.
	reads []*readEvent

	// pairSeen marks the eq. 6 pairs the lazy oracle has instantiated,
	// keyed by read ids.
	pairSeen map[[2]int]bool
}

// readEvent is one enabled read port at one frame. Levels count its
// candidate forwarding sources most-recent-first (frames descending, write
// ports descending within a frame: the priority order of eq. 4's chain);
// level is the instantiation frontier: levels below it carry their exact
// constraints, levels at or beyond it none yet.
type readEvent struct {
	readLits
	id, mi, k int
	// ps is the suspended chain literal: after `level` instantiated levels
	// it equals RE ∧ ¬s_0 ∧ … ∧ ¬s_{level-1}, and once the read is complete
	// it is N_{k,r}: the read is enabled and hit no in-window write.
	ps      sat.Lit
	level   int
	matches []sat.Lit // per instantiated level: S (eq. 4 chain) or s (direct eq. 1)
	// complete marks a read driven to its full chain, initial-state tail
	// and validity clause; vword is then its symbolic initial word
	// (arbitrary init only).
	complete bool
	vword    []sat.Lit
}

// NewGenerator builds an EMM generator over u. When forceArbitraryInit is
// set, declared zero-initialization of written memories is ignored (see
// ForceArbitraryInit).
func NewGenerator(u *unroll.Unroller, forceArbitraryInit bool) *Generator {
	g := &Generator{u: u, forceArb: forceArbitraryInit}
	for _, m := range u.N.Memories {
		if m.Init == aig.MemImage {
			panic("core: EMM does not support image-initialized memories; use the explicit model")
		}
		g.mems = append(g.mems, &memGen{m: m})
		g.memEnabled = append(g.memEnabled, true)
		g.readEnabled = append(g.readEnabled, trueSlice(len(m.Reads)))
		g.writeEnabled = append(g.writeEnabled, trueSlice(len(m.Writes)))
	}
	return g
}

func trueSlice(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

// SetMemoryEnabled includes or excludes an entire memory module from
// constraint generation (the §4.3 memory-module abstraction). Must be
// called before any frame is processed.
func (g *Generator) SetMemoryEnabled(mi int, on bool) {
	g.mustBeFresh()
	g.memEnabled[mi] = on
}

// SetReadPortEnabled includes or excludes one read port (its read data
// stays a free variable when excluded).
func (g *Generator) SetReadPortEnabled(mi, r int, on bool) {
	g.mustBeFresh()
	g.readEnabled[mi][r] = on
}

// SetWritePortEnabled includes or excludes one write port from every
// forwarding chain.
func (g *Generator) SetWritePortEnabled(mi, w int, on bool) {
	g.mustBeFresh()
	g.writeEnabled[mi][w] = on
}

// DisableInitConsistency suppresses the eq. 6 constraints (§4.2). The
// resulting model over-approximates arbitrary initial memory state: sound
// for falsification, but proofs that depend on read-read consistency fail.
func (g *Generator) DisableInitConsistency() {
	g.mustBeFresh()
	g.eq6Disabled = true
}

// DisableExclusivity switches to the direct eq. 1/eq. 3 clause encoding
// without the exclusive valid-read chains (see noExclusivity).
func (g *Generator) DisableExclusivity() {
	g.mustBeFresh()
	g.noExclusivity = true
}

// DisableComparatorMemo turns off address-comparator memoization, so every
// comparator is re-encoded even for a previously seen pair of address
// vectors, and read-event sharing with it: every read event then gets its
// own chain. The encoding is then exactly the paper's per-depth formula
// count; used by the equivalence tests and before/after measurements, and
// by the BMC engine whenever proof-based abstraction is tracking cores — a
// memoized comparator keeps its first creator's TagEMM tag, and a shared
// read has no chain of its own, either of which would misattribute core
// membership across read events.
func (g *Generator) DisableComparatorMemo() {
	g.mustBeFresh()
	g.noCompMemo = true
}

// arbitraryInit reports whether reads of m that hit no in-window write
// observe a symbolic word (§4.2) rather than the declared zero init: the
// memory is declared arbitrary, or the window is forced arbitrary and m
// has a write port. A memory with no write port never changes, so its
// declared contents hold in every reachable state and a window that does
// not start at the initial state may still assume them. Ports are counted
// on the netlist, so a write port an abstraction disables
// (SetWritePortEnabled) still keeps its memory arbitrary.
func (g *Generator) arbitraryInit(m *aig.Memory) bool {
	return (g.forceArb && len(m.Writes) > 0) || m.Init == aig.MemArbitrary
}

func (g *Generator) mustBeFresh() {
	if g.frames != 0 {
		panic("core: abstraction choices must be made before AddFrame")
	}
}

// AttachObs binds the generator to an observer: AddUpTo then emits one
// emm.generate span per processed depth and publishes per-constraint-family
// counter deltas (emm.addr_clauses, emm.readdata_clauses, emm.gates,
// emm.init_pairs, emm.init_clauses, emm.memo_hits, emm.shared_reads) into
// the registry.
func (g *Generator) AttachObs(o *obs.Observer) {
	g.obs = o
	reg := o.Registry()
	if reg == nil {
		return
	}
	g.obsAddr = reg.Counter(obs.MEMMAddrClauses)
	g.obsRD = reg.Counter(obs.MEMMReadDataClauses)
	g.obsGates = reg.Counter(obs.MEMMGates)
	g.obsIPair = reg.Counter(obs.MEMMInitPairs)
	g.obsICl = reg.Counter(obs.MEMMInitClauses)
	g.obsMemo = reg.Counter(obs.MEMMMemoHits)
	g.obsShare = reg.Counter(obs.MEMMSharedReads)
}

func (g *Generator) publishObs() {
	if g.obsAddr == nil {
		return
	}
	cur := g.sizes
	g.obsAddr.Add(int64(cur.AddrClauses - g.obsPub.AddrClauses))
	g.obsRD.Add(int64(cur.ReadDataClauses - g.obsPub.ReadDataClauses))
	g.obsGates.Add(int64(cur.Gates - g.obsPub.Gates))
	g.obsIPair.Add(int64(cur.InitPairs - g.obsPub.InitPairs))
	g.obsICl.Add(int64(cur.InitClauses - g.obsPub.InitClauses))
	g.obsMemo.Add(int64(cur.CompMemoHits - g.obsPub.CompMemoHits))
	g.obsShare.Add(int64(cur.SharedReads - g.obsPub.SharedReads))
	g.obsPub = cur
}

// Sizes returns the cumulative constraint tally.
func (g *Generator) Sizes() Sizes { return g.sizes }

// Frames returns the number of processed depths.
func (g *Generator) Frames() int { return g.frames }

// AddUpTo processes depths g.Frames() .. k (inclusive), the incremental
// "C_i = C_{i-1} ∪ EMM_Constraints(i)" update of Fig. 2/Fig. 3.
func (g *Generator) AddUpTo(k int) {
	for g.frames <= k {
		sp := g.obs.Span("emm.generate",
			obs.F("depth", g.frames), obs.F("arb_init", g.forceArb),
			obs.F("lazy", g.lazy))
		before := g.sizes
		g.addFrame(g.frames)
		g.publishObs()
		sp.End(
			obs.F("clauses", g.sizes.Clauses()-before.Clauses()),
			obs.F("init_clauses", g.sizes.InitClauses-before.InitClauses),
			obs.F("gates", g.sizes.Gates-before.Gates),
			obs.F("memo_hits", g.sizes.CompMemoHits-before.CompMemoHits),
			obs.F("shared_reads", g.sizes.SharedReads-before.SharedReads))
		g.frames++
	}
}

// addFrame is the one frame builder. It registers the frame-k read events
// of every enabled memory, sharing duplicates (see shareReads), and leaves
// the rest to the policy. The eager policy completes each read at once and
// emits its eq. 6 pairs against every earlier read event, so the frame's
// constraints are exactly EMM_Constraints(k) of Fig. 2. The lazy policy
// leaves the reads pending for RefineLazy, and builds the frame's write
// interface literals now, because the oracle decodes them from every model.
func (g *Generator) addFrame(k int) {
	u := g.u
	for mi, mg := range g.mems {
		if !g.memEnabled[mi] {
			continue
		}
		if k == 0 {
			for w, wp := range mg.m.Writes {
				if g.writeEnabled[mi][w] {
					mg.wports = append(mg.wports, wp)
				}
			}
		}
		if g.lazy {
			for _, wp := range mg.wports {
				u.Lit(wp.En, k)
				u.VecLits(wp.Addr, k)
				u.VecLits(wp.Data, k)
			}
		}
		share := g.shareReads(mg.m)
		var frame []readLits
		for r, rp := range mg.m.Reads {
			if !g.readEnabled[mi][r] {
				continue
			}
			ev := g.readLitsAt(r, rp, k)
			if g.shareRead(&frame, share, mi, k, ev) {
				continue
			}
			lr := &readEvent{readLits: ev, id: len(mg.reads), mi: mi, k: k, ps: ev.re}
			if g.lazy {
				g.sizes.LazyReads++
			} else {
				g.complete(lr)
				g.addInitPairs(mg, lr)
			}
			mg.reads = append(mg.reads, lr)
		}
	}
}

// shareReads reports whether duplicate read events of m are shared: an
// enabled read port whose frame-k enable literal and address literals equal
// those of an earlier enabled port of m at frame k gets only
// RE → RD = RD_twin. That is exact. Under RE the full encoding forces the
// two data words equal anyway: both reads build the same chain over the
// same write events, and for an unwritten location the eq. 6 pair between
// them compares an address with itself. Under ¬RE both reads stay free,
// because the clauses keep the RE literal. And every later eq. 6 pair with
// the duplicate is implied by the same pair with its twin. Sharing follows
// the comparator memo switch, so core tracking and the paper's formula
// counts see one chain per read event. It is off when eq. 6 is disabled
// for an arbitrary-init memory: that model gives each unwritten read its
// own free word, so the two reads may legitimately disagree there.
func (g *Generator) shareReads(m *aig.Memory) bool {
	return !g.noCompMemo && !(g.eq6Disabled && g.arbitraryInit(m))
}

// readLits holds the frame-k literals of one enabled read port r: its
// enable, address and data.
type readLits struct {
	r    int
	re   sat.Lit
	addr []sat.Lit
	rd   []sat.Lit
}

// readLitsAt builds the frame-k literals of read port r.
func (g *Generator) readLitsAt(r int, rp *aig.ReadPort, k int) readLits {
	ev := readLits{r: r, re: g.u.Lit(rp.En, k), addr: g.u.VecLits(rp.Addr, k)}
	ev.rd = make([]sat.Lit, len(rp.Data))
	for bit, dn := range rp.Data {
		ev.rd[bit] = g.u.Lit(aig.MkLit(dn, false), k)
	}
	return ev
}

// shareRead is the frame builder's twin lookup. With sharing on, it
// matches ev against the earlier unshared reads of its memory at frame k
// (*frame). On a match with the same enable and address literals it emits
// RE → RD = RD_twin and reports true; otherwise it adds ev to *frame and
// reports false, and the caller registers ev as a read event.
func (g *Generator) shareRead(frame *[]readLits, share bool, mi, k int, ev readLits) bool {
	if !share {
		return false
	}
	for _, q := range *frame {
		if q.re == ev.re && slices.Equal(q.addr, ev.addr) {
			g.emitShared(g.tagEMM(k, mi, ev.r), ev.re, ev.rd, q.rd)
			return true
		}
	}
	*frame = append(*frame, ev)
	return false
}

// emitShared emits RE → RD = RD_twin, 2·DW clauses: binary when RE is the
// constant true, none when it is the constant false (both reads are then
// disabled and free).
func (g *Generator) emitShared(tag unroll.Tag, re sat.Lit, rd, twin []sat.Lit) {
	g.sizes.SharedReads++
	if re == g.u.FalseLit() {
		return
	}
	var guard []sat.Lit
	if re != g.u.TrueLit() {
		guard = []sat.Lit{re.Not()}
	}
	for bit := range rd {
		g.addClause(tag, append(guard, rd[bit].Not(), twin[bit])...)
		g.addClause(tag, append(guard, rd[bit], twin[bit].Not())...)
		g.sizes.ReadDataClauses += 2
	}
}

func (g *Generator) tagEMM(k, mi, r int) unroll.Tag {
	return unroll.MkTag(unroll.TagEMM, k, mi<<8|r)
}

func (g *Generator) tagInit(k, mi, r int) unroll.Tag {
	return unroll.MkTag(unroll.TagEMMInit, k, mi<<8|r)
}

// writeAt maps level t (0 = most recent) of a read at frame k to its write
// event: frames descending, write ports descending within a frame.
func (mg *memGen) writeAt(k, t int) (frame int, wp *aig.WritePort) {
	n := len(mg.wports)
	return k - 1 - t/n, mg.wports[n-1-t%n]
}

// levels is the number of forwarding levels read lr can see: one per
// enabled write port per earlier frame.
func (mg *memGen) levels(lr *readEvent) int { return lr.k * len(mg.wports) }

// extend instantiates forwarding levels lr.level..level of read lr. Per
// level it emits the address comparator E, the match gate s = E ∧ WE, the
// chain step PS' = ¬s ∧ PS, and the read-data clauses against the written
// word: S → RD = WD with S = s ∧ PS under eq. 4/eq. 5 (the 3kW gates of
// §4.1), or (RE ∧ s ∧ no more recent s) → RD = WD under the direct eq. 1
// encoding, with that disjunction inlined per clause (2kW gates). The
// chain is left suspended at the new frontier, so every instantiated
// prefix is the exact encoding of its levels. A write event's literals are
// built by the first level that uses them: address and enable before the
// comparator, data after the gates.
func (g *Generator) extend(lr *readEvent, level int) {
	u := g.u
	mg := g.mems[lr.mi]
	tag := g.tagEMM(lr.k, lr.mi, lr.r)
	for ; lr.level <= level; lr.level++ {
		f, wp := mg.writeAt(lr.k, lr.level)
		waddr := u.VecLits(wp.Addr, f)
		we := u.Lit(wp.En, f)
		s := u.MkAndAux(g.addrEqual(waddr, lr.addr, tag), we, tag)
		// guard is the clause prefix, with room for the two data literals:
		// the solver copies a clause's literals, so every clause of the
		// level reuses it.
		match := s
		var guard []sat.Lit
		if g.noExclusivity {
			guard = append(make([]sat.Lit, 0, len(lr.matches)+4), lr.re.Not(), s.Not())
			guard = append(guard, lr.matches...)
		} else {
			match = u.MkAndAux(s, lr.ps, tag)
			guard = append(make([]sat.Lit, 0, 3), match.Not())
			g.sizes.Gates++
		}
		lr.ps = u.MkAndAux(s.Not(), lr.ps, tag)
		g.sizes.Gates += 2
		wd := u.VecLits(wp.Data, f)
		for bit := range lr.rd {
			g.addClause(tag, append(guard, lr.rd[bit].Not(), wd[bit])...)
			g.addClause(tag, append(guard, lr.rd[bit], wd[bit].Not())...)
			g.sizes.ReadDataClauses += 2
		}
		lr.matches = append(lr.matches, match)
		if g.lazy {
			g.sizes.LazyAxioms++
		}
	}
}

// complete drives lr to its full per-read constraint set: every remaining
// forwarding level, the initial-state tail (a fresh symbolic word V with
// N → RD = V for arbitrary init, §4.2; N → RD = 0, n clauses instead of
// 2n, for zero init), and the read validity clause of §3,
// (¬RE ∨ N ∨ S_0 ∨ … ∨ S_{kW-1}).
func (g *Generator) complete(lr *readEvent) {
	u := g.u
	mg := g.mems[lr.mi]
	g.extend(lr, mg.levels(lr)-1)
	itag := g.tagInit(lr.k, lr.mi, lr.r)
	if g.arbitraryInit(mg.m) {
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
	valid := append([]sat.Lit{lr.re.Not(), lr.ps}, lr.matches...)
	g.addClause(g.tagEMM(lr.k, lr.mi, lr.r), valid...)
	g.sizes.ReadDataClauses++
	lr.complete = true
	if g.lazy {
		g.sizes.LazyCompleted++
	}
}

// addInitPairs emits the eager policy's eq. 6 pairs of the just completed
// read lr against every earlier read event of its memory, port-major:
// each port's events in frame order, one port after another.
func (g *Generator) addInitPairs(mg *memGen, lr *readEvent) {
	if lr.vword == nil || g.eq6Disabled {
		return
	}
	itag := g.tagInit(lr.k, lr.mi, lr.r)
	for q := range mg.m.Reads {
		for _, o := range mg.reads {
			if o.r == q {
				g.addInitPair(itag, lr, o)
			}
		}
	}
}

// addInitPair emits one eq. 6 constraint between two completed
// arbitrary-init reads: (RA=RA' ∧ N ∧ N') → V = V'.
func (g *Generator) addInitPair(tag unroll.Tag, a, b *readEvent) {
	e := g.addrEqualCounted(a.addr, b.addr, tag, &g.sizes.InitClauses)
	cond := g.u.MkAndAux(e, a.ps, tag)
	cond = g.u.MkAndAux(cond, b.ps, tag)
	for bit := range a.vword {
		g.addClause(tag, cond.Not(), a.vword[bit].Not(), b.vword[bit])
		g.addClause(tag, cond.Not(), a.vword[bit], b.vword[bit].Not())
		g.sizes.InitClauses += 2
	}
	g.sizes.InitPairs++
}

// addrEqual emits the hybrid address-comparison encoding of §3 — per bit i,
// E→(a_i=b_i) and (a_i=b_i)→e_i (4 clauses), plus (∧e_i)→E (1 clause) —
// 4m+1 clauses total, and returns E.
func (g *Generator) addrEqual(a, b []sat.Lit, tag unroll.Tag) sat.Lit {
	return g.addrEqualCounted(a, b, tag, &g.sizes.AddrClauses)
}

func (g *Generator) addrEqualCounted(a, b []sat.Lit, tag unroll.Tag, counter *int) sat.Lit {
	var key string
	if !g.noCompMemo {
		key = compKey(a, b)
		if e, ok := g.compMemo[key]; ok {
			// The comparator for this pair of address vectors already
			// exists: reuse its E literal. Nothing is emitted, so the
			// per-kind counters keep tracking clauses actually added.
			g.sizes.CompMemoHits++
			return e
		}
	}
	e := g.buildAddrEqual(a, b, tag, counter)
	if !g.noCompMemo {
		if g.compMemo == nil {
			g.compMemo = make(map[string]sat.Lit)
		}
		g.compMemo[key] = e
	}
	return e
}

// compKey encodes a normalized (order-independent: equality is symmetric)
// pair of literal vectors as a map key.
func compKey(a, b []sat.Lit) string {
	// Order the two vectors lexicographically so (a,b) and (b,a) collide.
	if litVecLess(b, a) {
		a, b = b, a
	}
	buf := make([]byte, 0, 8*(len(a)+len(b))+1)
	for _, l := range a {
		buf = appendLit(buf, l)
	}
	buf = append(buf, '|')
	for _, l := range b {
		buf = appendLit(buf, l)
	}
	return string(buf)
}

func litVecLess(a, b []sat.Lit) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func appendLit(buf []byte, l sat.Lit) []byte {
	x := uint32(l)
	return append(buf, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
}

// buildAddrEqual emits a fresh comparator (see addrEqual for the encoding).
func (g *Generator) buildAddrEqual(a, b []sat.Lit, tag unroll.Tag, counter *int) sat.Lit {
	u := g.u
	e := u.FreshVar()
	g.sizes.AuxVars++
	last := make([]sat.Lit, 0, len(a)+1)
	for i := range a {
		ei := u.FreshVar()
		g.sizes.AuxVars++
		// E → (a_i = b_i)
		g.addClause(tag, e.Not(), a[i].Not(), b[i])
		g.addClause(tag, e.Not(), a[i], b[i].Not())
		// (a_i = b_i) → e_i
		g.addClause(tag, a[i].Not(), b[i].Not(), ei)
		g.addClause(tag, a[i], b[i], ei)
		*counter += 4
		last = append(last, ei.Not())
	}
	last = append(last, e)
	g.addClause(tag, last...)
	*counter++
	return e
}

func (g *Generator) addClause(tag unroll.Tag, lits ...sat.Lit) {
	g.u.S.AddClauseTagged(int64(tag), lits)
	g.u.ClausesAdded++
}
