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
	Gates           int // 3·kW·R per memory at depth k
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
	// Lazy-EMM refinement accounting (EnableLazy runs only; zero in eager
	// mode). The clause/gate counters above keep tallying what is actually
	// emitted, so Clauses() reports the reduced on-demand constraint set.
	LazyReads     int // interface read events tracked by the lazy skeleton
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

	// ForceArbitraryInit treats every memory as arbitrary-initialized,
	// regardless of its declared init. Required when the underlying
	// unrolling window does not start at the design's initial state (the
	// backward/induction-step checks): reads of locations not written
	// inside the window must then be arbitrary-but-consistent rather than
	// the declared reset contents.
	forceArb bool

	// retainWriteFreeInit keeps the declared initial contents of memories
	// with no write ports even under forceArb (see RetainWriteFreeInit).
	retainWriteFreeInit bool

	memEnabled   []bool
	readEnabled  [][]bool
	writeEnabled [][]bool

	// eq6Disabled suppresses the cross-read consistency constraints of
	// §4.2. Exists to demonstrate (and regression-test) the paper's claim
	// that fresh variables alone over-approximate the initial state and
	// can break proofs.
	eq6Disabled bool

	// noExclusivity replaces the S/PS exclusive valid-read chains of
	// eq. 4 with a direct clause translation of the forwarding semantics
	// (eq. 1/eq. 3): each read-data clause then carries the whole
	// "no intervening write" disjunction instead of a single chain
	// literal. Semantically equivalent, but the SAT solver loses the
	// immediate exclusivity propagation the paper highlights — the
	// ablation BenchmarkAblationExclusivity measures the difference.
	noExclusivity bool

	// noCompMemo disables comparator memoization (A/B measurement and
	// equivalence tests only), and with it read-event sharing (see
	// shareReads).
	noCompMemo bool

	// lazy switches AddUpTo to interface-only skeleton emission; the
	// forwarding constraints are then instantiated on demand by the
	// RefineLazy oracle (see lazy.go).
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
	m     *aig.Memory
	reads []*readGen

	// Lazy-mode state (EnableLazy): per-frame enabled write interface
	// literals, the tracked read events, and the eq. 6 pairs already
	// instantiated (keyed by read id). wpc is the (static) enabled
	// write-port count, the stride of the level ↔ (frame, port) mapping.
	lwrites   [][]lazyWrite
	lazyReads []*lazyRead
	pairSeen  map[[2]int]bool
	wpc       int
}

// readGen caches, per processed depth k, the signals needed by later depths
// for the eq. 6 cross-read consistency constraints.
type readGen struct {
	re   []sat.Lit   // RE_{k,r}
	addr [][]sat.Lit // RA_{k,r}
	n    []sat.Lit   // N_{k,r} = PS_{0,k,0,r}: read hit no in-window write
	v    [][]sat.Lit // V_{k,r}: symbolic initial word (arbitrary init only)
	rd   [][]sat.Lit // RD_{k,r}
}

// ReadEvent describes one read port at one processed depth, exposing the
// CNF literals a witness decoder needs: whether the read was enabled and
// hit no in-window write (N), its address, and its data. A shared event
// (see shareReads) carries its twin's N literal.
type ReadEvent struct {
	Frame int
	Re    sat.Lit
	Addr  []sat.Lit
	N     sat.Lit
	RD    []sat.Lit
}

// ReadEvents lists the processed read events of read port r of memory mi.
// Ports excluded from modeling have no events.
func (g *Generator) ReadEvents(mi, r int) []ReadEvent {
	rg := g.mems[mi].reads[r]
	out := make([]ReadEvent, len(rg.n))
	for k := range rg.n {
		out[k] = ReadEvent{Frame: k, Re: rg.re[k], Addr: rg.addr[k], N: rg.n[k], RD: rg.rd[k]}
	}
	return out
}

// NewGenerator builds an EMM generator over u. When forceArbitraryInit is
// set, declared zero-initialization is ignored (see ForceArbitraryInit).
func NewGenerator(u *unroll.Unroller, forceArbitraryInit bool) *Generator {
	g := &Generator{u: u, forceArb: forceArbitraryInit}
	for _, m := range u.N.Memories {
		if m.Init == aig.MemImage {
			panic("core: EMM does not support image-initialized memories; use the explicit model")
		}
		g.mems = append(g.mems, &memGen{m: m, reads: makeReadGens(len(m.Reads))})
		g.memEnabled = append(g.memEnabled, true)
		g.readEnabled = append(g.readEnabled, trueSlice(len(m.Reads)))
		g.writeEnabled = append(g.writeEnabled, trueSlice(len(m.Writes)))
	}
	return g
}

func makeReadGens(n int) []*readGen {
	out := make([]*readGen, n)
	for i := range out {
		out[i] = &readGen{}
	}
	return out
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
	if g.lazy {
		panic("core: lazy EMM requires the exclusivity-chain encoding")
	}
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

// RetainWriteFreeInit keeps the declared initial contents of write-free
// memories under ForceArbitraryInit: a memory with zero write ports never
// changes, so "its contents equal the declared init" is an invariant of
// every reachable state, and an induction-step window (which otherwise must
// treat all memories as arbitrary per §4.2) may soundly assume it. This is
// the k-induction engine's strengthening: it turns ROM-like lookup designs
// — unprovable under fully arbitrary backward windows at any bound — into
// depth-0 induction proofs. Memories declared MemArbitrary keep their
// fresh-variable modeling; only a declared (zero) init is retained, and
// only when the compiled netlist carries no write port for the memory.
func (g *Generator) RetainWriteFreeInit() {
	g.mustBeFresh()
	g.retainWriteFreeInit = true
}

// arbitraryInit reports whether reads of m that hit no in-window write
// observe a symbolic word (§4.2) rather than the declared zero init: the
// memory is declared arbitrary, or the window is forced arbitrary and
// retention does not apply to m.
func (g *Generator) arbitraryInit(m *aig.Memory) bool {
	retained := g.retainWriteFreeInit && len(m.Writes) == 0
	return (g.forceArb && !retained) || m.Init == aig.MemArbitrary
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
		if g.lazy {
			g.lazyAddFrame(g.frames)
		} else {
			g.addFrame(g.frames)
		}
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

func (g *Generator) addFrame(k int) {
	for mi, mg := range g.mems {
		if !g.memEnabled[mi] {
			continue
		}
		share := g.shareReads(mg.m)
		var frame []readLits
		for r, rp := range mg.m.Reads {
			if !g.readEnabled[mi][r] {
				continue
			}
			ev := g.readLitsAt(r, rp, k)
			if q := g.shareRead(&frame, share, mi, k, ev); q != nil {
				// Record the event with the twin's N literal and no
				// initial word, so the witness decoder sees one consistent
				// word and no eq. 6 pair is ever built against it.
				rg := mg.reads[r]
				rg.re = append(rg.re, ev.re)
				rg.addr = append(rg.addr, ev.addr)
				rg.n = append(rg.n, mg.reads[q.r].n[k])
				rg.rd = append(rg.rd, ev.rd)
				rg.v = append(rg.v, nil)
				continue
			}
			g.addReadConstraints(mi, mg, ev, k)
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

// shareRead is the one twin lookup of the eager and lazy frame builders.
// With sharing on, it matches ev against the earlier unshared reads of its
// memory at frame k (*frame). On a match with the same enable and address
// literals it emits RE → RD = RD_twin and returns the twin; otherwise it
// adds ev to *frame and returns nil, and the caller encodes ev in full.
func (g *Generator) shareRead(frame *[]readLits, share bool, mi, k int, ev readLits) *readLits {
	if !share {
		return nil
	}
	for i := range *frame {
		q := &(*frame)[i]
		if q.re == ev.re && slices.Equal(q.addr, ev.addr) {
			g.emitShared(g.tagEMM(k, mi, ev.r), ev.re, ev.rd, q.rd)
			return q
		}
	}
	*frame = append(*frame, ev)
	return nil
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

// addReadConstraints emits the forwarding constraints for read port r of
// memory mi at depth k: address comparisons against every enabled write
// port at every earlier depth, the exclusivity chain of eq. 4, the read
// data constraints of eq. 5, and the initial-state handling. ev carries
// the port's frame-k enable, address and data literals.
func (g *Generator) addReadConstraints(mi int, mg *memGen, ev readLits, k int) {
	u := g.u
	m := mg.m
	r := ev.r
	rg := mg.reads[r]
	tag := g.tagEMM(k, mi, r)
	re, raddr, rdata := ev.re, ev.addr, ev.rd

	// Per-(depth, write port) match signals s_{i,k,w,r} = E ∧ WE, most
	// recent writes first (the priority order of eq. 4's chain).
	type match struct {
		s  sat.Lit // s (direct mode) or S (chain mode)
		wd []sat.Lit
	}
	var matches []match
	var rawS []sat.Lit
	ps := re
	for i := k - 1; i >= 0; i-- {
		for w := len(m.Writes) - 1; w >= 0; w-- {
			if !g.writeEnabled[mi][w] {
				continue
			}
			wp := m.Writes[w]
			waddr := u.VecLits(wp.Addr, i)
			we := u.Lit(wp.En, i)
			e := g.addrEqual(waddr, raddr, tag)
			s := u.MkAndAux(e, we, tag)
			g.sizes.Gates++
			if g.noExclusivity {
				// Direct eq. 1/eq. 3 translation, no chain.
				rawS = append(rawS, s)
				matches = append(matches, match{s: s, wd: u.VecLits(wp.Data, i)})
				continue
			}
			// Exclusivity chain (eq. 4): S = s ∧ ps (1 gate),
			// PS' = ¬s ∧ ps (1 gate): with s, the 3kW gates of §4.1.
			bigS := u.MkAndAux(s, ps, tag)
			ps = u.MkAndAux(s.Not(), ps, tag)
			g.sizes.Gates += 2
			matches = append(matches, match{s: bigS, wd: u.VecLits(wp.Data, i)})
		}
	}
	if g.noExclusivity {
		// N_{k,r} = RE ∧ no match (still needed for init handling).
		for _, s := range rawS {
			ps = u.MkAndAux(s.Not(), ps, tag)
		}
	}

	// Read data forwarding.
	if g.noExclusivity {
		// (RE ∧ s_t ∧ ¬s_0 ∧ … ∧ ¬s_{t-1}) → RD = WD_t, with the whole
		// "no more recent match" disjunction inlined per clause.
		for t, mt := range matches {
			base := make([]sat.Lit, 0, t+4)
			base = append(base, re.Not(), mt.s.Not())
			for u2 := 0; u2 < t; u2++ {
				base = append(base, matches[u2].s)
			}
			for bit := range rdata {
				g.addClause(tag, append(append([]sat.Lit(nil), base...), rdata[bit].Not(), mt.wd[bit])...)
				g.addClause(tag, append(append([]sat.Lit(nil), base...), rdata[bit], mt.wd[bit].Not())...)
				g.sizes.ReadDataClauses += 2
			}
		}
	} else {
		// eq. 5: S_{i,k,w,r} → RD_{k,r} = WD_{i,w}.
		for _, mt := range matches {
			for bit := range rdata {
				g.addClause(tag, mt.s.Not(), rdata[bit].Not(), mt.wd[bit])
				g.addClause(tag, mt.s.Not(), rdata[bit], mt.wd[bit].Not())
				g.sizes.ReadDataClauses += 2
			}
		}
	}

	// Initial-state read: ps is now PS_{0,k,0,r} = N_{k,r}.
	itag := g.tagInit(k, mi, r)
	arbitrary := g.arbitraryInit(m)
	var vword []sat.Lit
	if arbitrary {
		// N → RD = V with a fresh symbolic word V_{k,r} (§4.2).
		vword = make([]sat.Lit, m.DW)
		for bit := range vword {
			vword[bit] = u.FreshVar()
			g.sizes.AuxVars++
			g.addClause(itag, ps.Not(), rdata[bit].Not(), vword[bit])
			g.addClause(itag, ps.Not(), rdata[bit], vword[bit].Not())
			g.sizes.ReadDataClauses += 2
		}
	} else {
		// Zero-initialized memory: N → RD = 0 (n clauses instead of the
		// paper's 2n for a symbolic initial word).
		for bit := range rdata {
			g.addClause(itag, ps.Not(), rdata[bit].Not())
			g.sizes.ReadDataClauses++
		}
	}

	// Validity of the read (the "(!REk + S-1 + … + Sk-1)" clause of §3).
	valid := make([]sat.Lit, 0, len(matches)+2)
	valid = append(valid, re.Not(), ps)
	for _, mt := range matches {
		valid = append(valid, mt.s)
	}
	g.addClause(tag, valid...)
	g.sizes.ReadDataClauses++

	// Cross-read consistency for arbitrary initial state (eq. 6): for
	// every earlier read event (j, q) with a symbolic word, equal
	// addresses + both unwritten ⇒ equal words.
	if arbitrary && !g.eq6Disabled {
		for q, oth := range mg.reads {
			for j := range oth.n {
				if q == r && j == k {
					continue
				}
				if oth.v == nil || oth.v[j] == nil {
					continue
				}
				g.addInitPair(itag, raddr, ps, vword, oth.addr[j], oth.n[j], oth.v[j])
			}
		}
	}

	// Record this read event for future eq. 6 pairs.
	rg.re = append(rg.re, re)
	rg.addr = append(rg.addr, raddr)
	rg.n = append(rg.n, ps)
	rg.rd = append(rg.rd, rdata)
	if arbitrary {
		rg.v = append(rg.v, vword)
	} else {
		rg.v = append(rg.v, nil)
	}
}

// addInitPair emits one eq. 6 constraint:
// (RA=RA' ∧ N ∧ N') → V = V'.
func (g *Generator) addInitPair(tag unroll.Tag, ra []sat.Lit, n sat.Lit, v []sat.Lit, ra2 []sat.Lit, n2 sat.Lit, v2 []sat.Lit) {
	e := g.addrEqualCounted(ra, ra2, tag, &g.sizes.InitClauses)
	cond := g.u.MkAndAux(e, n, tag)
	cond = g.u.MkAndAux(cond, n2, tag)
	for bit := range v {
		g.addClause(tag, cond.Not(), v[bit].Not(), v2[bit])
		g.addClause(tag, cond.Not(), v[bit], v2[bit].Not())
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
