package bmc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/designs"
	"emmver/internal/expmem"
	"emmver/internal/pass"
	"emmver/internal/rtl"
)

// The lazy-EMM equivalence suite: a run without termination checks
// relaxes its counter-example query (see newWindow), and the refine loop
// accepts a SAT model only once the semantic oracle validates it, so every
// verdict, depth, and witness length must match the eager encoding
// exactly. The relaxation must also never emit MORE EMM clauses than the
// eager run (it should emit strictly fewer whenever any read-over-write
// axiom goes unneeded).

// assertLazyEquiv runs opt (lazy: it has no termination checks) and its
// eager twin, and compares verdict, depth, proof side and witness length,
// the forward window's EMM clause tally, and the refinement counters.
func assertLazyEquiv(t *testing.T, name string, run func(opt Options) *Result, opt Options) {
	t.Helper()
	lazy := run(opt)
	opt.eagerEMM = true
	eager := run(opt)
	if lazy.Stats.EMM.LazyReads == 0 {
		t.Errorf("%s: the default run tracked no lazy reads", name)
	}
	if eager.Kind != lazy.Kind || eager.Depth != lazy.Depth || eager.ProofSide != lazy.ProofSide {
		t.Errorf("%s: eager %v (%s) vs lazy %v (%s)",
			name, eager, eager.ProofSide, lazy, lazy.ProofSide)
	}
	if (eager.Witness == nil) != (lazy.Witness == nil) {
		t.Errorf("%s: witness presence differs", name)
	} else if eager.Witness != nil && eager.Witness.Length != lazy.Witness.Length {
		t.Errorf("%s: witness length %d vs %d", name, eager.Witness.Length, lazy.Witness.Length)
	}
	// Stats.EMM reports the forward window's generator in both modes; the
	// lazy relaxation instantiates a subset of the eager axioms.
	eagerEMM := eager.Stats.EMM.Clauses() + eager.Stats.EMM.InitClauses
	lazyEMM := lazy.Stats.EMM.Clauses() + lazy.Stats.EMM.InitClauses
	if lazyEMM > eagerEMM {
		t.Errorf("%s: lazy run emitted MORE EMM clauses (%d) than eager (%d)",
			name, lazyEMM, eagerEMM)
	}
	if lazy.Stats.LazyRounds < lazy.Stats.LazySpurious {
		t.Errorf("%s: %d spurious models but only %d refinement rounds",
			name, lazy.Stats.LazySpurious, lazy.Stats.LazyRounds)
	}
}

// TestEngineChoosesEMMEncoding pins the encoding rule of newWindow: a run
// without termination checks is lazy; bmc3, both PBA phases and the eq. 1
// ablation are eager.
func TestEngineChoosesEMMEncoding(t *testing.T) {
	q := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 3, DataW: 4, StackAW: 3})
	n := q.Netlist()
	ablation := Options{Engine: EngineBMC2, MaxDepth: 8}
	ablation.DisableExclusivity = true
	pba := ProveWithPBA(n, q.P2Index, Options{Engine: EngineBMC3, MaxDepth: 14, StabilityDepth: 10})
	if pba.Proof == nil {
		t.Fatalf("PBA stopped after phase 1: %v", pba.Phase1)
	}
	for _, tc := range []struct {
		name string
		r    *Result
		lazy bool
	}{
		{"bmc2", Check(n, q.P2Index, Options{Engine: EngineBMC2, MaxDepth: 14}), true},
		{"bmc3", Check(n, q.P1Index, Options{Engine: EngineBMC3, MaxDepth: 8}), false},
		{"pba-abstract", pba.Phase1, false},
		{"pba-prove", pba.Proof, false},
		{"eq1-ablation", Check(n, q.P1Index, ablation), false},
	} {
		st := tc.r.Stats
		if tc.lazy && (st.EMM.LazyReads == 0 || st.LazyRounds == 0) {
			t.Errorf("%s: want a lazy run, got %d lazy reads and %d refinement rounds",
				tc.name, st.EMM.LazyReads, st.LazyRounds)
		}
		if !tc.lazy && (st.EMM.LazyReads != 0 || st.LazyRounds != 0) {
			t.Errorf("%s: want an eager run, got %d lazy reads and %d refinement rounds",
				tc.name, st.EMM.LazyReads, st.LazyRounds)
		}
	}
}

func TestLazyEquivalenceQuickSort(t *testing.T) {
	q := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 3, DataW: 4, StackAW: 3})
	n := q.Netlist()
	for _, tc := range []struct {
		name string
		prop int
		opt  Options
	}{
		{"bmc2-p1", q.P1Index, Options{Engine: EngineBMC2, MaxDepth: 8}},
		{"bmc2-p2", q.P2Index, Options{Engine: EngineBMC2, MaxDepth: 14}},
	} {
		tc.opt.ValidateWitness = true
		assertLazyEquiv(t, "quicksort/"+tc.name, func(opt Options) *Result {
			return Check(n, tc.prop, opt)
		}, tc.opt)
	}
}

func TestLazyEquivalenceImageFilter(t *testing.T) {
	f := designs.NewImageFilter(designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 8})
	n := f.Netlist()
	for _, prop := range []int{0, 3, 7} {
		opt := Options{Engine: EngineBMC2, MaxDepth: 3*4 + 10}
		opt.ValidateWitness = true
		assertLazyEquiv(t, fmt.Sprintf("filter/p%d", prop), func(opt Options) *Result {
			return Check(n, prop, opt)
		}, opt)
	}
}

func TestLazyEquivalenceLookup(t *testing.T) {
	// Arbitrary-init memory: exercises the eq. 6 oracle grouping on the
	// invariant (compiled without passes: the constant sweep folds it to
	// true) and on the reachability properties.
	l := designs.NewLookup(designs.LookupConfig{AW: 3, DW: 4, NumProps: 4, Latency: 3})
	n := l.Netlist()
	inv := Options{Engine: EngineBMC2, MaxDepth: 12}
	inv.Passes = pass.SpecNone
	assertLazyEquiv(t, "lookup/inv", func(opt Options) *Result {
		return Check(n, l.InvariantIndex, opt)
	}, inv)
	for _, prop := range l.ReachIndices[:2] {
		assertLazyEquiv(t, fmt.Sprintf("lookup/p%d", prop), func(opt Options) *Result {
			return Check(n, prop, opt)
		}, Options{Engine: EngineBMC2, MaxDepth: 12})
	}
}

func TestLazyEquivalenceGrowthShape(t *testing.T) {
	// The §S2/§S7 shared-address shape at reduced widths: one write and two
	// reads on a single address bus, arbitrary init, valid property — every
	// depth is an UNSAT accepted straight from the relaxation.
	m := rtl.NewModule("growth")
	mem := m.Memory("mem", 4, 4, aig.MemArbitrary)
	addr := m.Input("a", 4)
	mem.Write(addr, m.Input("wd", 4), m.InputBit("we"))
	re0, re1 := m.InputBit("re0"), m.InputBit("re1")
	rd0, rd1 := mem.Read(addr, re0), mem.Read(addr, re1)
	both := m.N.And(re0, re1)
	m.AssertAlways("agree", m.N.And(both, m.Eq(rd0, rd1).Not()).Not())
	opt := Options{Engine: EngineBMC2, MaxDepth: 10}
	assertLazyEquiv(t, "growth", func(opt Options) *Result {
		return Check(m.N, 0, opt)
	}, opt)
}

func TestLazyWitnessMemInit(t *testing.T) {
	// The lazily-found CE must still pin the arbitrary-init word it read:
	// the decoder re-derives which reads hit no write from the validated
	// model's interface trace, as the semantic oracle does.
	m := rtl.NewModule("winit")
	mem := m.Memory("mem", 2, 3, aig.MemArbitrary)
	rd := mem.Read(m.Const(2, 2), aig.True)
	m.AssertAlways("ne5", m.EqConst(rd, 5).Not())
	opt := Options{Engine: EngineBMC2, MaxDepth: 3, ValidateWitness: true}
	r := Check(m.N, 0, opt)
	if r.Kind != KindCE {
		t.Fatalf("expected CE, got %v", r)
	}
	if r.Stats.LazyRounds == 0 {
		t.Fatalf("lazy engine reported no refinement rounds")
	}
	if got := r.Witness.MemInit[0][2]; got != 5 {
		t.Fatalf("witness must pin mem[2]=5, got %d (map %v)", got, r.Witness.MemInit[0])
	}
	if err := r.Witness.Replay(m.N, 0); err != nil {
		t.Fatalf("lazy witness does not replay: %v", err)
	}
}

func TestLazyWitnessReplayThroughMapping(t *testing.T) {
	// Decoy-salted source: the compile pipeline strips a free-running junk
	// counter, so the lazily-found witness crosses pass.Mapping on its way
	// back. It must replay and render on the ORIGINAL netlist.
	m := rtl.NewModule("salted")
	mem := m.Memory("mem", 3, 4, aig.MemZero)
	wa := m.Input("wa", 3)
	wd := m.Input("wd", 4)
	mem.Write(wa, wd, aig.True)
	ra := m.Input("ra", 3)
	rd := mem.Read(ra, aig.True)
	junk := m.Register("junk", 8, 0)
	junk.SetNext(m.Inc(junk.Q))
	m.Done(junk)
	m.AssertAlways("ne9", m.EqConst(rd, 9).Not())

	opt := Options{Engine: EngineBMC2, MaxDepth: 6, ValidateWitness: true}
	r := Check(m.N, 0, opt)
	if r.Kind != KindCE {
		t.Fatalf("expected CE, got %v", r)
	}
	if err := r.Witness.Replay(m.N, 0); err != nil {
		t.Fatalf("witness does not replay on the source netlist: %v", err)
	}
	for f := 0; f <= r.Witness.Length; f++ {
		if s := r.Witness.FormatFrame(m.N, f); !strings.Contains(s, "wa[") || !strings.Contains(s, "ra[") {
			t.Fatalf("FormatFrame(%d) lost source input names: %q", f, s)
		}
	}
}

// randMemDesign builds a small random multi-port memory design: 1-2 write
// ports and three reads wired from a mix of inputs, counter slices, and
// constants, under one of seven property shapes. Read port 2 duplicates
// read port 0 (same enable and address: EMM shares its event) or nearly
// duplicates it (one address bit, or the enable, differs). Every property
// observes a read's data only while that read's enable is high: EMM leaves
// a disabled read's data free (§2.3), while the simulator and the explicit
// expansion read the array whatever the enable (see DESIGN §5). The
// counter is a reset register in half of the designs and InitX in the
// other half (symbolic reports which): a reset counter folds to a constant
// at every frame of an initialized window, so everything drawn from it is
// a constant there, while an InitX counter keeps those comparators
// symbolic. Seeded, so every trial is reproducible from its index.
func randMemDesign(rng *rand.Rand) (m *rtl.Module, symbolic bool) {
	const aw, dw = 2, 3
	m = rtl.NewModule("fuzz")
	init := aig.MemZero
	if rng.Intn(2) == 1 {
		init = aig.MemArbitrary
	}
	mem := m.Memory("mem", aw, dw, init)
	symbolic = rng.Intn(2) == 1
	var cnt *rtl.Reg
	if symbolic {
		cnt = m.RegisterX("cnt", aw)
	} else {
		cnt = m.Register("cnt", aw, 0)
	}
	cnt.SetNext(m.Inc(cnt.Q))
	regs := []*rtl.Reg{cnt}
	pick := func(name string, w int) rtl.Vec {
		switch rng.Intn(3) {
		case 0:
			return m.Input(name, w)
		case 1:
			if w <= len(cnt.Q) {
				return m.Truncate(cnt.Q, w)
			}
			return m.ZeroExtend(cnt.Q, w)
		default:
			return m.Const(w, uint64(rng.Intn(1<<w)))
		}
	}
	const overwrite = 6 // the property shape that needs two writes to one address
	shape := rng.Intn(7)
	var wa0, wd0 rtl.Vec
	var we0 aig.Lit
	for i := 0; i < 1+rng.Intn(2); i++ {
		we := aig.True
		if rng.Intn(2) == 0 {
			we = m.InputBit(fmt.Sprintf("we%d", i))
		}
		var wa, wd rtl.Vec
		if i == 0 && shape == overwrite {
			// Free address and data, so that two writes can hit one
			// address with different words.
			wa, wd = m.Input("wa0", aw), m.Input("wd0", dw)
		} else {
			wa, wd = pick(fmt.Sprintf("wa%d", i), aw), pick(fmt.Sprintf("wd%d", i), dw)
		}
		if i == 0 {
			wa0, wd0, we0 = wa, wd, we
		}
		mem.Write(wa, wd, we)
	}
	twin := rng.Intn(4)
	// A constant enable with a constant address gives equal literals at
	// every frame. A differing enable only matters when port 0's can be
	// low, so that case always drives it from an input.
	re := aig.True
	if twin == 3 || rng.Intn(2) == 0 {
		re = m.InputBit("re")
	}
	ra0, ra1 := pick("ra0", aw), pick("ra1", aw)
	re2, ra2 := re, ra0
	switch twin {
	case 1: // one address bit differs
		ra2 = append(rtl.Vec{ra0[0].Not()}, ra0[1:]...)
	case 2: // one address bit comes from its own input
		ra2 = append(rtl.Vec{m.InputBit("ra2_0")}, ra0[1:]...)
	case 3: // the enable differs
		re2 = m.InputBit("re2")
	}
	rd0, rd1, rd2 := mem.Read(ra0, re), mem.Read(ra1, re), mem.Read(ra2, re2)
	switch shape {
	case 0:
		m.AssertAlways("agree", m.N.Implies(m.N.And(re, m.Eq(ra0, ra1)), m.Eq(rd0, rd1)))
	case 1:
		m.AssertAlways("nonmax", m.N.Implies(re, m.EqConst(rd0, 1<<dw-1).Not()))
	case 2:
		m.AssertAlways("ne", m.N.Implies(re, m.Ne(rd0, rd1)))
	case 3: // reads rd0 too, so the port pass keeps read port 0
		m.AssertAlways("nonmax2", m.N.And(
			m.N.Implies(re2, m.EqConst(rd2, 1<<dw-1).Not()),
			m.N.Implies(m.N.And(re, re2), m.Eq(rd0, rd2))))
	case 4:
		m.AssertAlways("same2", m.N.Implies(m.N.And(re, re2), m.Eq(rd0, rd2)))
	case 5:
		m.AssertAlways("ne2", m.N.Implies(m.N.And(re, re2), m.Ne(rd2, rd1)))
	case overwrite:
		// (v1, a1, d1) and (v2, a2, d2) record write port 0's two most
		// recent writes. The property claims that a read of an address
		// written twice still returns the older word d2: it fails as
		// soon as the two writes carry different words, a CE that an
		// eq. 1 encoding without its "no more recent match" guard loses
		// (it forces the read to equal both words).
		v1, v2 := m.Register("v1", 1, 0), m.Register("v2", 1, 0)
		a1, a2 := m.Register("a1", aw, 0), m.Register("a2", aw, 0)
		d1, d2 := m.Register("d1", dw, 0), m.Register("d2", dw, 0)
		v1.Update(we0, rtl.Vec{aig.True})
		v2.Update(we0, v1.Q)
		a1.Update(we0, wa0)
		a2.Update(we0, a1.Q)
		d1.Update(we0, wd0)
		d2.Update(we0, d1.Q)
		regs = append(regs, v1, v2, a1, a2, d1, d2)
		hit := m.N.Ands(re, v2.Q[0], m.Eq(a1.Q, a2.Q), m.Eq(ra0, a1.Q))
		m.AssertAlways("keeps-old", m.N.Implies(hit, m.Eq(rd0, d2.Q)))
	}
	m.Done(regs...)
	return m, symbolic
}

func TestLazyDifferentialFuzz(t *testing.T) {
	// Differential oracle: on random multi-port designs with duplicated
	// and nearly duplicated read ports, EMM with read-event sharing and
	// without it (DisableEMMMemo), and the explicit-expansion baseline
	// must agree on the verdict at EVERY depth, not just the final one.
	// bmc2 runs lazy and, through the eager override, eager; the proof
	// engine — BMC-3 without PBA — always runs eager, and its
	// variants must also agree on the proof side. The direct eq. 1
	// encoding (DisableExclusivity, always eager) joins bmc2 and bmc3.
	// Plain BMC on the explicit expansion pins bmc2's verdict and depth
	// exactly; see agreesWithExplicit for the proof engines.
	const trials, maxDepth = 60, 5
	type variant struct {
		name string
		set  func(*Options)
	}
	unshared := []variant{
		{"shared", func(*Options) {}},
		{"unshared", func(o *Options) { o.DisableEMMMemo = true }},
	}
	direct := variant{"direct", func(o *Options) { o.DisableExclusivity = true }}
	withEager := []variant{
		unshared[0], unshared[1],
		{"eager", func(o *Options) { o.eagerEMM = true }},
		{"eager-unshared", func(o *Options) { o.eagerEMM, o.DisableEMMMemo = true, true }},
		direct,
	}
	engines := []struct {
		name     string
		variants []variant
	}{
		{EngineBMC2, withEager},
		{EngineBMC3, append(unshared, direct)},
	}
	shared, symbolic := 0, 0
	for seed := 0; seed < trials; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		m, sym := randMemDesign(rng)
		if sym {
			symbolic++
		}
		exp, _, err := expmem.Expand(m.N)
		if err != nil {
			t.Fatalf("seed %d: expand: %v", seed, err)
		}
		explMax := Check(exp, 0, Options{MaxDepth: maxDepth})
		for d := 0; d <= maxDepth; d++ {
			expl := Check(exp, 0, Options{MaxDepth: d})
			if expl.Kind == KindCE {
				if err := expl.Witness.Replay(exp, 0); err != nil {
					t.Fatalf("seed %d depth %d: explicit witness replay: %v", seed, d, err)
				}
			}
			for _, eng := range engines {
				var ref *Result
				for _, v := range eng.variants {
					o := Options{Engine: eng.name, MaxDepth: d}
					v.set(&o)
					r := Check(m.N, 0, o)
					shared += r.Stats.EMM.SharedReads
					if r.Kind == KindCE {
						if err := r.Witness.Replay(m.N, 0); err != nil {
							t.Fatalf("seed %d depth %d %s/%s: witness replay: %v", seed, d, eng.name, v.name, err)
						}
					}
					if !agreesWithExplicit(eng.name, r, expl, d) {
						t.Fatalf("seed %d depth %d %s/%s: EMM %v vs explicit %v", seed, d, eng.name, v.name, r, expl)
					}
					if r.Kind == KindProof && explMax.Kind == KindCE {
						t.Fatalf("seed %d depth %d %s/%s: PROOF, but the explicit model has %v", seed, d, eng.name, v.name, explMax)
					}
					if ref == nil {
						ref = r
					} else if r.Kind != ref.Kind || r.Depth != ref.Depth || r.ProofSide != ref.ProofSide {
						t.Fatalf("seed %d depth %d %s: %s %v (%s) vs %s %v (%s)",
							seed, d, eng.name, eng.variants[0].name, ref, ref.ProofSide, v.name, r, r.ProofSide)
					}
				}
			}
		}
	}
	t.Logf("%d trials with a reset counter (folded in initialized windows), %d with an InitX counter", trials-symbolic, symbolic)
	if shared == 0 {
		t.Fatalf("no trial shared a read event: the generator no longer reaches the sharing path")
	}
	if symbolic == 0 || symbolic == trials {
		t.Fatalf("every trial drew the same counter kind")
	}
}

// agreesWithExplicit reports whether engine eng's depth-d result r matches
// plain BMC's result expl on the explicit expansion. bmc2 must match its
// kind and depth exactly. A proof engine must report the same CE, and
// where expl finds none, NO_CE at depth d or a PROOF — never another
// verdict, and never a NO_CE that stops short of d.
func agreesWithExplicit(eng string, r, expl *Result, d int) bool {
	if eng == "bmc2" || expl.Kind == KindCE {
		return r.Kind == expl.Kind && r.Depth == expl.Depth
	}
	return (r.Kind == KindNoCE && r.Depth == d) || r.Kind == KindProof
}
