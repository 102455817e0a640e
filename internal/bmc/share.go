package bmc

// The clause-sharing bridge connects one worker engine's solvers to the
// fleet bus (internal/share). Clauses cross worker boundaries in a
// canonical literal coding with two namespaces:
//
//   - frame codes (< compCanonBase), assigned by the unroller from the
//     (node, time-frame) coordinate of every cached frame value. A frame
//     code denotes "value of node id at frame t", which every worker builds
//     (or can decline to import) independently of its own CNF numbering.
//   - comparator codes (>= compCanonBase), assigned here: each EMM address
//     comparator E is keyed by the canonical codes of the two address
//     vectors it compares, interned fleet-wide on the bus, and registered
//     with the worker's unroller. A comparator is equivalent to the address
//     equality it encodes in every model, so two workers' comparators with
//     the same key denote the same signal even when comparator memoization
//     is off and one worker built duplicates.
//
// A clause with any literal outside both namespaces is dropped by the
// export filter; a clause whose codes the receiving worker has not built
// yet is dropped by the import filter. Both drops are counted as filtered —
// sharing is an optimization, so losing a clause is always safe.
//
// Soundness: exported clauses are consequences of the worker's clause
// database, which is a property-independent, total encoding of the design's
// unrolled executions (engines are only shared between properties when the
// design asserts no environment constraints, and the per-property parts —
// ¬P assumptions, cube assumptions — are assumptions, never clauses). Under
// the canonical decoding every worker's database describes the same
// executions, so a peer's lemma holds in the importer too. shareEligible
// gates the two cases that would break this: PBA proof tracing (imported
// clauses have no derivation in the trace; the solver also refuses imports
// while tracing as a backstop) and asserted environment constraints.
// Forward (initialized) and backward (free-initial-state) windows describe
// different execution sets, so they get separate buses.

import (
	"emmver/internal/core"
	"emmver/internal/sat"
	"emmver/internal/share"
	"emmver/internal/unroll"

	"emmver/internal/aig"
)

// compCanonBase is the first canonical base code of the comparator
// namespace. Frame bases are bounded by frames*nodes, far below 2^52.
const compCanonBase = uint64(1) << 52

// compPrivateBase is the first comparator base in the private intern
// range: ids the bus coined locally after its transport died. Such an id
// is meaningless to any other process (a peer's n-th private id names a
// different comparator), so clauses carrying one must never be exported,
// and an imported clause carrying one must be dropped — the exporter broke
// the invariant, and resolving the code through this worker's comps map
// would silently import a wrong lemma. The transport already stops
// flushing on intern failure; these two filters are the bridge's backstop.
const compPrivateBase = compCanonBase + share.PrivateInternBase

// newBuses builds a fleet's sharing buses for n workers when opt.Share is
// on (nil otherwise): one for the forward windows and, under Proofs, one
// for the backward windows. Each worker's clause ring holds
// Options.ShareCap entries, 4096 by default; see share.Ring for why overrun
// is harmless.
func newBuses(n int, opt Options) (fwd, bwd *share.Bus) {
	if !opt.Share {
		return nil, nil
	}
	ring := opt.ShareCap
	if ring <= 0 {
		ring = 4096
	}
	fwd = share.NewBus(n, ring)
	if opt.Proofs {
		bwd = share.NewBus(n, ring)
	}
	return fwd, bwd
}

// shareEligible reports whether the fleet may share clauses (and split
// cubes) for this compiled model and option set; see the package comment
// above for why PBA and environment constraints disqualify a run.
func shareEligible(n *aig.Netlist, opt Options) bool {
	return !opt.PBA && len(n.Constraints) == 0
}

// shareBridge is one solver's endpoint: export filter, import decoder, and
// the comparator canonicalization hook. All state is confined to the
// owning worker's goroutine; only the bus itself is shared.
type shareBridge struct {
	bus   *share.Bus
	inbox *share.Inbox
	u     *unroll.Unroller
	self  int

	// comps resolves comparator-namespace codes to this worker's E
	// literals (first comparator built for a key wins; duplicates are
	// equivalent signals).
	comps map[uint64]sat.Lit

	outBuf []uint64
	inBuf  []sat.Lit
	keyBuf []byte
}

func newShareBridge(bus *share.Bus, u *unroll.Unroller, self int) *shareBridge {
	u.TrackCanon = true
	return &shareBridge{
		bus:   bus,
		inbox: bus.Inbox(self),
		u:     u,
		self:  self,
		comps: make(map[uint64]sat.Lit),
	}
}

// attachShare wires worker w's engine to the forward and backward buses.
// Must run right after newEngine, before any frame is unrolled.
func attachShare(e *engine, fwd, bwd *share.Bus, w int) {
	hook := func(b *shareBridge, s *sat.Solver, g *core.Generator) {
		if g != nil {
			g.OnComparator = b.onComparator
		}
		s.Export = b.export
		s.Import = b.runImport
	}
	if fwd != nil {
		hook(newShareBridge(fwd, e.fu, w), e.fs, e.fg)
	}
	if bwd != nil && e.bs != nil {
		hook(newShareBridge(bwd, e.bu, w), e.bs, e.bg)
	}
}

// onComparator gives a freshly encoded comparator its fleet-wide canonical
// identity. Comparators whose address vectors are not fully canonical
// (they contain depth-local auxiliary literals) stay private.
func (b *shareBridge) onComparator(e sat.Lit, a, bb []sat.Lit) {
	key, ok := b.canonKey(a, bb)
	if !ok {
		return
	}
	base := compCanonBase + b.bus.Intern(key)
	b.u.SetCanon(e, base)
	if _, dup := b.comps[base]; !dup {
		b.comps[base] = e
		b.u.Freeze(e) // imports may watch E after local search moved on
	}
}

// canonKey builds the order-normalized canonical key of an address-vector
// pair (equality is symmetric, so (a,b) and (b,a) must collide — same
// normalization as core.compKey, but over canonical codes).
func (b *shareBridge) canonKey(a, bb []sat.Lit) (string, bool) {
	ca, ok := b.codeVec(a, b.outBuf[:0])
	if !ok {
		return "", false
	}
	cb, ok := b.codeVec(bb, ca[len(ca):])
	if !ok {
		return "", false
	}
	if codeVecLess(cb, ca) {
		ca, cb = cb, ca
	}
	buf := b.keyBuf[:0]
	for _, c := range ca {
		buf = appendCode(buf, c)
	}
	buf = append(buf, '|')
	for _, c := range cb {
		buf = appendCode(buf, c)
	}
	b.keyBuf = buf[:0]
	return string(buf), true
}

func (b *shareBridge) codeVec(lits []sat.Lit, dst []uint64) ([]uint64, bool) {
	for _, l := range lits {
		c := b.u.CanonLit(l)
		if c == 0 {
			return nil, false
		}
		dst = append(dst, c)
	}
	return dst, true
}

func codeVecLess(a, b []uint64) bool {
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

func appendCode(buf []byte, c uint64) []byte {
	return append(buf,
		byte(c), byte(c>>8), byte(c>>16), byte(c>>24),
		byte(c>>32), byte(c>>40), byte(c>>48), byte(c>>56))
}

// export is the solver's Export hook: translate the learnt clause to
// canonical codes and publish it, or count it filtered when any literal
// has no canonical identity (depth-local auxiliaries) or carries a
// private-range comparator code (meaningless outside this process).
func (b *shareBridge) export(lits []sat.Lit, lbd int) {
	codes := b.outBuf[:0]
	for _, l := range lits {
		c := b.u.CanonLit(l)
		if c == 0 || c>>1 >= compPrivateBase {
			b.outBuf = codes[:0]
			b.bus.AddFiltered(1)
			return
		}
		codes = append(codes, c)
	}
	b.outBuf = codes[:0]
	b.bus.Publish(b.self, &share.Clause{Lits: append([]uint64(nil), codes...), LBD: lbd})
}

// runImport is the solver's Import hook: drain every peer's ring, decode
// each clause into local literals, and hand the decodable ones to the
// solver's importer. Clauses referencing signals this worker has not built
// (deeper frames, unseen comparators) are counted filtered and dropped.
func (b *shareBridge) runImport(add func(lits []sat.Lit, lbd int) bool) {
	var imported, filtered int64
	b.inbox.Drain(func(c *share.Clause) {
		lits := b.inBuf[:0]
		for _, code := range c.Lits {
			l, ok := b.decode(code)
			if !ok {
				b.inBuf = lits[:0]
				filtered++
				return
			}
			lits = append(lits, l)
		}
		b.inBuf = lits[:0]
		if add(lits, c.LBD) {
			imported++
		} else {
			filtered++
		}
	})
	if imported > 0 {
		b.bus.AddImported(imported)
	}
	if filtered > 0 {
		b.bus.AddFiltered(filtered)
	}
}

func (b *shareBridge) decode(code uint64) (sat.Lit, bool) {
	if base := code >> 1; base >= compCanonBase {
		if base >= compPrivateBase {
			// A private id is only meaningful in the process that coined it;
			// this worker's comps map may hold the same base for a different
			// comparator, so looking it up would import a wrong lemma.
			return sat.LitUndef, false
		}
		e, ok := b.comps[base]
		if !ok {
			return sat.LitUndef, false
		}
		return e.XorSign(code&1 == 1), true
	}
	return b.u.LocalLit(code)
}
