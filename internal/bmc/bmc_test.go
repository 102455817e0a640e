package bmc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"emmver/internal/aig"
	"emmver/internal/expmem"
	"emmver/internal/obs"
	"emmver/internal/rtl"
)

// mod5Counter builds a counter cycling 0..4 with property "cnt != 6"
// (true; 6 is unreachable) and property "cnt != target" (false for
// target ≤ 4, violated first at depth target).
func mod5Counter(target uint64) *rtl.Module {
	m := rtl.NewModule("mod5")
	c := m.Register("cnt", 3, 0)
	wrap := m.EqConst(c.Q, 4)
	c.SetNext(m.MuxV(wrap, m.Const(3, 0), m.Inc(c.Q)))
	m.Done(c)
	m.AssertAlways("ne6", m.EqConst(c.Q, 6).Not())
	m.AssertAlways("neTarget", m.EqConst(c.Q, target).Not())
	return m
}

// An unknown engine name is a caller bug: every entry point panics with
// the name before it solves anything.
func TestUnknownEnginePanics(t *testing.T) {
	n := mod5Counter(2).N
	opt := Options{Engine: "bmc4", MaxDepth: 3}
	for name, run := range map[string]func(){
		"Check":             func() { Check(n, 0, opt) },
		"CheckManyParallel": func() { CheckManyParallel(n, []int{0}, opt, 2) },
		"ProveWithPBA":      func() { ProveWithPBA(n, 0, opt) },
		"CEGAR":             func() { CEGAR(n, 0, opt, 2) },
	} {
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), `unknown engine "bmc4"`) {
					t.Errorf("%s: recovered %v, want a panic naming the engine", name, r)
				}
			}()
			run()
		}()
	}
}

func TestCounterexampleAtExactDepth(t *testing.T) {
	for target := uint64(0); target <= 4; target++ {
		m := mod5Counter(target)
		r := Check(m.N, 1, Options{MaxDepth: 10, ValidateWitness: true})
		if r.Kind != KindCE || r.Depth != int(target) {
			t.Fatalf("target %d: got %v", target, r)
		}
		if r.Witness == nil || r.Witness.Length != int(target) {
			t.Fatalf("target %d: bad witness", target)
		}
	}
}

func TestProofOnMod5Counter(t *testing.T) {
	m := mod5Counter(2)
	r := Check(m.N, 0, Options{Engine: EngineBMC1, MaxDepth: 20})
	if r.Kind != KindProof {
		t.Fatalf("expected proof, got %v", r)
	}
	// Backward induction catches this before the forward diameter (5).
	if r.Depth > 5 {
		t.Fatalf("proof too deep: %v", r)
	}
}

func TestForwardTerminationProof(t *testing.T) {
	// A +2 counter mod 8 starting at 0: the even orbit {0,2,4,6} is
	// reachable, the odd orbit {1,3,5,7} is not. "cnt != 5" cannot be
	// proved by backward induction at small depth (the odd orbit feeds 5
	// with loop-free all-good prefixes up to length 3), so the forward
	// termination check fires first, at the orbit size.
	m := rtl.NewModule("plus2")
	c := m.Register("cnt", 3, 0)
	c.SetNext(m.Add(c.Q, m.Const(3, 2)))
	m.Done(c)
	m.AssertAlways("ne5", m.EqConst(c.Q, 5).Not())
	// The compile pipeline would fold bit 0 of the +2 counter (it is
	// inductively constant) and prove the property structurally; pin it
	// off so the forward-termination machinery itself is exercised.
	r := Check(m.N, 0, Options{Engine: EngineBMC1, MaxDepth: 20, Passes: "none"})
	if r.Kind != KindProof || r.ProofSide != "forward" || r.Depth != 4 {
		t.Fatalf("expected forward proof at depth 4, got %v side=%s", r, r.ProofSide)
	}
}

// TestLFPRefinementObserved checks that the demand-driven loop-free-path
// work of a forward proof is reported consistently in Stats and on the
// lfp.* registry counters.
func TestLFPRefinementObserved(t *testing.T) {
	m := rtl.NewModule("plus2")
	c := m.Register("cnt", 3, 0)
	c.SetNext(m.Add(c.Q, m.Const(3, 2)))
	m.Done(c)
	m.AssertAlways("ne5", m.EqConst(c.Q, 5).Not())
	reg := obs.NewRegistry()
	opt := Options{Engine: EngineBMC1, MaxDepth: 20, Passes: "none"}
	opt.Obs = obs.New(reg, nil)
	r := Check(m.N, 0, opt)
	if r.Kind != KindProof || r.Depth != 4 {
		t.Fatalf("expected a proof at depth 4, got %v", r)
	}
	// The even orbit has 4 states, so the forward check's models at depth
	// 4 must repeat one before the check can go UNSAT.
	if r.Stats.LFPPairs == 0 || r.Stats.LFPRounds == 0 {
		t.Fatalf("no LFP refinement recorded: %d pairs, %d rounds", r.Stats.LFPPairs, r.Stats.LFPRounds)
	}
	if got := reg.Counter(obs.MLFPPairs).Value(); got != r.Stats.LFPPairs {
		t.Fatalf("lfp.pairs = %d, Stats.LFPPairs = %d", got, r.Stats.LFPPairs)
	}
	if got := reg.Counter(obs.MLFPRounds).Value(); got != r.Stats.LFPRounds {
		t.Fatalf("lfp.rounds = %d, Stats.LFPRounds = %d", got, r.Stats.LFPRounds)
	}
}

func TestBackwardInductionProof(t *testing.T) {
	// A sticky flag: once set it stays set; property "flag set -> stays
	// set next cycle" is encoded as prev-set implies set, which is
	// 1-inductive and needs no initial-state anchoring.
	m := rtl.NewModule("sticky")
	set := m.InputBit("set")
	flag := m.BitReg("flag", false)
	flag.UpdateBit(m.N.Or(flag.Bit(), set), aig.True)
	prev := m.BitReg("prev", false)
	prev.UpdateBit(aig.True, flag.Bit())
	m.Done(flag, prev)
	m.AssertAlways("monotone", m.N.Implies(prev.Bit(), flag.Bit()))
	r := Check(m.N, 0, Options{Engine: EngineBMC1, MaxDepth: 20})
	if r.Kind != KindProof || r.ProofSide != "backward" {
		t.Fatalf("expected backward proof, got %+v", r)
	}
	if r.Depth > 2 {
		t.Fatalf("induction depth too deep: %d", r.Depth)
	}
}

func TestNoCEBoundExhausted(t *testing.T) {
	m := mod5Counter(4)
	r := Check(m.N, 1, Options{MaxDepth: 2}) // CE is at depth 4
	if r.Kind != KindNoCE || r.Depth != 2 {
		t.Fatalf("expected NO_CE at bound, got %v", r)
	}
}

// memEcho: each cycle the input word is written to a fixed address and a
// register mirrors it; reading that address the next cycle must match the
// mirror. True property, needs memory semantics to prove.
func memEcho() *rtl.Module {
	m := rtl.NewModule("echo")
	mem := m.Memory("mem", 2, 3, aig.MemZero)
	d := m.Input("d", 3)
	addr := m.Const(2, 1)
	mem.Write(addr, d, aig.True)
	mirror := m.Register("mirror", 3, 0)
	mirror.SetNext(d)
	m.Done(mirror)
	rd := mem.Read(addr, aig.True)
	m.AssertAlways("echo", m.Eq(rd, mirror.Q))
	return m
}

func TestEMMProvesMemoryProperty(t *testing.T) {
	m := memEcho()
	r := Check(m.N, 0, Options{Engine: EngineBMC3, MaxDepth: 20})
	if r.Kind != KindProof {
		t.Fatalf("expected proof, got %v", r)
	}
}

func TestExplicitProvesSameProperty(t *testing.T) {
	m := memEcho()
	exp, _, err := expmem.Expand(m.N)
	if err != nil {
		t.Fatal(err)
	}
	r := Check(exp, 0, Options{Engine: EngineBMC1, MaxDepth: 20})
	if r.Kind != KindProof {
		t.Fatalf("expected proof on explicit model, got %v", r)
	}
}

// memReach: input-driven writes and reads; the property "rd != 5" is
// violated once the environment writes 5 somewhere and reads it back.
func memReach() *rtl.Module {
	m := rtl.NewModule("reach")
	mem := m.Memory("mem", 2, 3, aig.MemZero)
	mem.Write(m.Input("wa", 2), m.Input("wd", 3), m.InputBit("we"))
	re := m.InputBit("re")
	rd := mem.Read(m.Input("ra", 2), re)
	seen := m.BitReg("seen", false)
	seen.UpdateBit(m.N.And(re, m.EqConst(rd, 5)), aig.True)
	m.Done(seen)
	m.AssertAlways("ne5", seen.Bit().Not())
	return m
}

func TestEMMvsExplicitAgreeOnReachability(t *testing.T) {
	m := memReach()
	emm := Check(m.N, 0, Options{Engine: EngineBMC2, MaxDepth: 6, ValidateWitness: true})
	exp, _, err := expmem.Expand(m.N)
	if err != nil {
		t.Fatal(err)
	}
	expl := Check(exp, 0, Options{MaxDepth: 6})
	if emm.Kind != KindCE || expl.Kind != KindCE {
		t.Fatalf("both engines must find the CE: emm=%v explicit=%v", emm, expl)
	}
	if emm.Depth != expl.Depth {
		t.Fatalf("CE depth mismatch: emm=%d explicit=%d", emm.Depth, expl.Depth)
	}
}

// randomMemDesign builds a small scripted design mixing memory traffic and
// state, with a reachability property, for EMM/explicit agreement fuzzing.
func randomMemDesign(rng *rand.Rand) *rtl.Module {
	m := rtl.NewModule("fuzz")
	aw := 1 + rng.Intn(2)
	dw := 1 + rng.Intn(3)
	init := aig.MemZero
	if rng.Intn(2) == 0 {
		init = aig.MemArbitrary
	}
	mem := m.Memory("mem", aw, dw, init)
	nw := 1 + rng.Intn(2)
	for i := 0; i < nw; i++ {
		mem.Write(m.Input("wa", aw), m.Input("wd", dw), m.InputBit("we"))
	}
	re := m.InputBit("re")
	rd := mem.Read(m.Input("ra", aw), re)
	acc := m.Register("acc", dw, 0)
	// Accumulate read data only when the read is enabled.
	acc.Update(re, m.XorV(acc.Q, rd))
	m.Done(acc)
	target := rng.Uint64() & (1<<uint(dw) - 1)
	m.AssertAlways("reach", m.EqConst(acc.Q, target).Not())
	return m
}

func TestEMMvsExplicitAgreementFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(2005))
	for iter := 0; iter < 25; iter++ {
		m := randomMemDesign(rng)
		emm := Check(m.N, 0, Options{Engine: EngineBMC2, MaxDepth: 5, ValidateWitness: true})
		exp, _, err := expmem.Expand(m.N)
		if err != nil {
			t.Fatal(err)
		}
		expl := Check(exp, 0, Options{MaxDepth: 5})
		if emm.Kind != expl.Kind || (emm.Kind == KindCE && emm.Depth != expl.Depth) {
			t.Fatalf("iter %d: disagreement emm=%v explicit=%v", iter, emm, expl)
		}
	}
}

// initConsistency: reads the same arbitrary-init address twice into two
// registers and asserts they match — true only with eq. 6.
func initConsistency() *rtl.Module {
	m := rtl.NewModule("initc")
	mem := m.Memory("mem", 2, 3, aig.MemArbitrary)
	st := m.NewFSM("st", 2, 0)
	st.GotoAlways(0, 1)
	st.GotoAlways(1, 2)
	rd := mem.Read(m.Const(2, 3), aig.True)
	a := m.Register("a", 3, 0)
	a.Update(st.In(0), rd)
	b := m.Register("b", 3, 0)
	b.Update(st.In(1), rd)
	m.Done(st.Reg, a, b)
	m.AssertAlways("consistent", m.N.Implies(st.In(2), m.Eq(a.Q, b.Q)))
	return m
}

func TestArbitraryInitProofNeedsEq6(t *testing.T) {
	m := initConsistency()
	with := Check(m.N, 0, Options{Engine: EngineBMC3, MaxDepth: 10})
	if with.Kind != KindProof {
		t.Fatalf("with eq6: expected proof, got %v", with)
	}
	opt := Options{Engine: EngineBMC3, MaxDepth: 10}
	opt.disableEq6 = true
	without := Check(m.N, 0, opt)
	if without.Kind != KindCE {
		t.Fatalf("without eq6: expected spurious CE, got %v", without)
	}
	// The spurious trace must fail concrete replay.
	if err := without.Witness.Replay(m.N, 0); err == nil {
		t.Fatalf("spurious witness unexpectedly replays")
	}
	// And the explicit model agrees the property is true.
	exp, _, err := expmem.Expand(m.N)
	if err != nil {
		t.Fatal(err)
	}
	expl := Check(exp, 0, Options{Engine: EngineBMC1, MaxDepth: 10})
	if expl.Kind != KindProof {
		t.Fatalf("explicit model: expected proof, got %v", expl)
	}
}

// lookupBug mimics the Industry II design: writes are dead (WE gated by
// false), reads land in a register; "register stays 0" is true but becomes
// spurious-CE if the memory is fully abstracted.
func lookupBug() *rtl.Module {
	m := rtl.NewModule("lookup")
	mem := m.Memory("mem", 3, 4, aig.MemZero)
	never := m.N.And(m.InputBit("x"), aig.False)
	mem.Write(m.Input("wa", 3), m.Input("wd", 4), never)
	re := m.InputBit("re")
	rd := mem.Read(m.Input("ra", 3), re)
	out := m.Register("out", 4, 0)
	out.Update(re, rd)
	m.Done(out)
	m.AssertAlways("zero", m.IsZero(out.Q))
	return m
}

func TestFullMemoryAbstractionIsSpurious(t *testing.T) {
	m := lookupBug()
	// No EMM: read data free, property falls over (spuriously).
	noEMM := Check(m.N, 0, Options{MaxDepth: 10})
	if noEMM.Kind != KindCE {
		t.Fatalf("full abstraction should produce a spurious CE, got %v", noEMM)
	}
	if err := noEMM.Witness.Replay(m.N, 0); err == nil {
		t.Fatalf("abstract CE should not replay concretely")
	}
	// With EMM: proof.
	emm := Check(m.N, 0, Options{Engine: EngineBMC3, MaxDepth: 20})
	if emm.Kind != KindProof {
		t.Fatalf("EMM should prove the property, got %v", emm)
	}
}

func TestWitnessMemInitExtraction(t *testing.T) {
	// Arbitrary-init memory; the property fails when address 2 holds 5
	// initially and is read out. The witness must pin that word.
	m := rtl.NewModule("winit")
	mem := m.Memory("mem", 2, 3, aig.MemArbitrary)
	rd := mem.Read(m.Const(2, 2), aig.True)
	m.AssertAlways("ne5", m.EqConst(rd, 5).Not())
	r := Check(m.N, 0, Options{Engine: EngineBMC2, MaxDepth: 3, ValidateWitness: true})
	if r.Kind != KindCE {
		t.Fatalf("expected CE, got %v", r)
	}
	if got := r.Witness.MemInit[0][2]; got != 5 {
		t.Fatalf("witness must pin mem[2]=5, got %d (map %v)", got, r.Witness.MemInit[0])
	}
}

func TestPBAFlowReducesAndProves(t *testing.T) {
	// Relevant: a mod-5 counter with an unreachable-value property.
	// Irrelevant: a second counter driving a memory that feeds a dangling
	// register.
	m := rtl.NewModule("pba")
	c1 := m.Register("c1", 3, 0)
	wrap := m.EqConst(c1.Q, 4)
	c1.SetNext(m.MuxV(wrap, m.Const(3, 0), m.Inc(c1.Q)))
	c2 := m.Register("c2", 4, 0)
	c2.SetNext(m.Inc(c2.Q))
	mem := m.Memory("junk", 2, 4, aig.MemZero)
	mem.Write(m.Slice(c2.Q, 0, 2), c2.Q, aig.True)
	rd := mem.Read(m.Slice(c2.Q, 1, 3), aig.True)
	dangle := m.Register("dangle", 4, 0)
	dangle.SetNext(rd)
	m.Done(c1, c2, dangle)
	m.AssertAlways("ne6", m.EqConst(c1.Q, 6).Not())

	opt := Options{Engine: EngineBMC3, MaxDepth: 40, StabilityDepth: 5}
	res := ProveWithPBA(m.N, 0, opt)
	if res.Kind() != KindProof {
		t.Fatalf("expected proof, got %v (phase1=%v)", res.Kind(), res.Phase1)
	}
	if res.Abs == nil {
		t.Fatalf("no abstraction computed")
	}
	// The junk memory must have been abstracted away entirely.
	if res.Abs.MemEnabled[0] {
		t.Fatalf("irrelevant memory should be abstracted: %s", res.Abs)
	}
	// The kept-latch count must be well below the total.
	total := res.Abs.KeptLatches + len(res.Abs.FreeLatches)
	if res.Abs.KeptLatches >= total {
		t.Fatalf("no reduction: %s", res.Abs)
	}
	// c1's latches must be kept.
	for _, q := range c1.Q {
		if res.Abs.FreeLatches[q.Node()] {
			t.Fatalf("relevant latch freed")
		}
	}
}

func TestPBAPhase1FindsRealCE(t *testing.T) {
	m := mod5Counter(3)
	res := ProveWithPBA(m.N, 1, Options{Engine: EngineBMC1, MaxDepth: 20, StabilityDepth: 5})
	if res.Kind() != KindCE || res.Phase1.Depth != 3 {
		t.Fatalf("PBA flow must surface the real CE: %v", res.Phase1)
	}
}

func TestTimeout(t *testing.T) {
	// A design large enough not to finish in a microsecond.
	m := rtl.NewModule("slow")
	mem := m.Memory("mem", 6, 16, aig.MemZero)
	mem.Write(m.Input("wa", 6), m.Input("wd", 16), m.InputBit("we"))
	rd := mem.Read(m.Input("ra", 6), aig.True)
	acc := m.Register("acc", 16, 0)
	acc.SetNext(m.Add(acc.Q, rd))
	m.Done(acc)
	m.AssertAlways("p", m.EqConst(acc.Q, 0xBEEF).Not())
	exp, _, err := expmem.Expand(m.N)
	if err != nil {
		t.Fatal(err)
	}
	r := Check(exp, 0, Options{MaxDepth: 60, Timeout: time.Millisecond})
	if r.Kind != KindTimeout {
		t.Fatalf("expected timeout, got %v", r)
	}
}

func TestCheckMany(t *testing.T) {
	// Counter mod 8 with properties "cnt != k" for k = 0..9: CEs at depth
	// k for k ≤ 7, forward-termination proofs for 8 and 9.
	m := rtl.NewModule("many")
	c := m.Register("cnt", 4, 0)
	wrap := m.EqConst(c.Q, 7)
	c.SetNext(m.MuxV(wrap, m.Const(4, 0), m.Inc(c.Q)))
	m.Done(c)
	var props []int
	for k := 0; k <= 9; k++ {
		m.AssertAlways("ne", m.EqConst(c.Q, uint64(k)).Not())
		props = append(props, k)
	}
	res := CheckManyParallel(m.N, props, Options{Engine: EngineBMC1, MaxDepth: 30, ValidateWitness: true}, 1)
	for k := 0; k <= 7; k++ {
		r := res.Results[k]
		if r.Kind != KindCE || r.Depth != k {
			t.Fatalf("prop %d: got %v", k, r)
		}
	}
	for k := 8; k <= 9; k++ {
		if res.Results[k].Kind != KindProof {
			t.Fatalf("prop %d: expected proof, got %v", k, res.Results[k])
		}
	}
	if res.MaxWitnessDepth != 7 {
		t.Fatalf("max witness depth %d want 7", res.MaxWitnessDepth)
	}
	counts := res.Counts()
	if counts[KindCE] != 8 || counts[KindProof] != 2 {
		t.Fatalf("counts wrong: %v", counts)
	}
}

func TestCheckManyWithEMM(t *testing.T) {
	// Shared-unrolling variant over a memory design: two properties, one
	// reachable, one provable.
	m := rtl.NewModule("manymem")
	mem := m.Memory("mem", 2, 3, aig.MemZero)
	mem.Write(m.Input("wa", 2), m.Input("wd", 3), m.InputBit("we"))
	re := m.InputBit("re")
	rd := mem.Read(m.Input("ra", 2), re)
	got5 := m.BitReg("got5", false)
	got5.UpdateBit(m.N.And(re, m.EqConst(rd, 5)), aig.True)
	m.Done(got5)
	m.AssertAlways("ne5", got5.Bit().Not())               // reachable (CE)
	m.AssertAlways("tauto", m.N.Or(got5.Bit(), aig.True)) // trivially true
	res := CheckManyParallel(m.N, []int{0, 1}, Options{Engine: EngineBMC3, MaxDepth: 8, ValidateWitness: true}, 1)
	if res.Results[0].Kind != KindCE || res.Results[0].Depth != 2 {
		t.Fatalf("prop 0: expected CE at depth 2, got %v", res.Results[0])
	}
	if res.Results[1].Kind != KindProof {
		t.Fatalf("prop 1: expected proof, got %v", res.Results[1])
	}
	// Each verdict carries the time the run took to decide it.
	for pi, r := range res.Results {
		if r.Stats.Elapsed <= 0 {
			t.Errorf("prop %d: Stats.Elapsed = %v, want > 0", pi, r.Stats.Elapsed)
		}
	}
}

// TestPureLatchLFPIsUnsound documents why the default LFP is memory-aware:
// with the paper's literal latch-only loop-free constraint, the forward
// termination check "proves" a property that is in fact violated (the
// violating trace needs the memory contents — which the latch state does
// not capture — to evolve first).
func TestPureLatchLFPIsUnsound(t *testing.T) {
	build := func() *rtl.Module {
		m := rtl.NewModule("lfptrap")
		mem := m.Memory("mem", 2, 3, aig.MemZero)
		mem.Write(m.Input("wa", 2), m.Input("wd", 3), m.InputBit("we"))
		re := m.InputBit("re")
		rd := mem.Read(m.Input("ra", 2), re)
		got5 := m.BitReg("got5", false)
		got5.UpdateBit(m.N.And(re, m.EqConst(rd, 5)), aig.True)
		m.Done(got5)
		m.AssertAlways("ne5", got5.Bit().Not())
		return m
	}
	// Ground truth via the explicit model: the property is violated.
	exp, _, err := expmem.Expand(build().N)
	if err != nil {
		t.Fatal(err)
	}
	if r := Check(exp, 0, Options{MaxDepth: 6}); r.Kind != KindCE {
		t.Fatalf("ground truth should be CE, got %v", r)
	}
	// Paper-literal LFP: bogus forward proof before the CE depth.
	lit := Options{Engine: EngineBMC3, MaxDepth: 6}
	lit.pureLatchLFP = true
	if r := Check(build().N, 0, lit); r.Kind != KindProof {
		t.Fatalf("expected the literal LFP to (unsoundly) prove, got %v", r)
	}
	// Memory-aware LFP (default): the real counter-example is found.
	if r := Check(build().N, 0, Options{Engine: EngineBMC3, MaxDepth: 6}); r.Kind != KindCE {
		t.Fatalf("memory-aware LFP must find the CE, got %v", r)
	}
}

// TestLatchFreeMemoryLFP: a design whose only state is a memory still has
// loop-free paths, since a write makes two frames distinct. The
// termination checks must not treat it as stateless and claim a proof at
// depth 1 when the write-then-read violation needs exactly one step.
func TestLatchFreeMemoryLFP(t *testing.T) {
	m := rtl.NewModule("latchfree")
	mem := m.Memory("mem", 2, 3, aig.MemZero)
	mem.Write(m.Input("wa", 2), m.Input("wd", 3), m.InputBit("we"))
	rd := mem.Read(m.Input("ra", 2), aig.True)
	m.Done()
	m.AssertAlways("ne5", m.EqConst(rd, 5).Not())
	if len(m.N.Latches) != 0 {
		t.Fatalf("design must be latch-free")
	}
	if r := Check(m.N, 0, Options{Engine: EngineBMC3, MaxDepth: 4}); r.Kind != KindCE || r.Depth != 1 {
		t.Errorf("got %v (%s), want CE at depth 1", r, r.ProofSide)
	}
}

// TestDisabledReadReplayMismatch pins a known mismatch between the EMM
// and the concrete models (DESIGN §5). EMM leaves a disabled read's data
// free (paper §2.3, core.TestReadDisabledIsFree), but the simulator and
// the explicit expansion read mem[addr] whatever the enable. A property
// that looks at read data while the enable is low therefore gets a CE from
// EMM that the replay rejects and the explicit model does not have. The
// replay must reject it, so such a CE is never reported as validated.
func TestDisabledReadReplayMismatch(t *testing.T) {
	m := rtl.NewModule("disabledread")
	mem := m.Memory("mem", 1, 2, aig.MemZero)
	rd := mem.Read(m.Input("ra", 1), m.InputBit("re"))
	m.Done()
	m.AssertAlways("zero", m.EqConst(rd, 0))

	r := Check(m.N, 0, Options{Engine: EngineBMC2, MaxDepth: 3})
	if r.Kind != KindCE || r.Depth != 0 {
		t.Fatalf("EMM: got %v, want CE at depth 0 (disabled read data is free)", r)
	}
	if err := r.Witness.Replay(m.N, 0); err == nil || !strings.Contains(err.Error(), "spurious") {
		t.Fatalf("replay must reject the disabled-read witness, got %v", err)
	}
	exp, _, err := expmem.Expand(m.N)
	if err != nil {
		t.Fatal(err)
	}
	if r := Check(exp, 0, Options{MaxDepth: 3}); r.Kind != KindNoCE || r.Depth != 3 {
		t.Fatalf("explicit model: got %v, want NO_CE at depth 3", r)
	}
	// With witness validation on, the engine stops instead of reporting it.
	opt := Options{Engine: EngineBMC2, MaxDepth: 3}
	opt.ValidateWitness = true
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "witness replay failed") {
			t.Fatalf("validated run must refuse the witness, got panic %v", p)
		}
	}()
	Check(m.N, 0, opt)
}

func TestConstraintsInBMC(t *testing.T) {
	// An assumed environment constraint blocks the violation.
	m := rtl.NewModule("constr")
	x := m.InputBit("x")
	r := m.BitReg("r", false)
	r.UpdateBit(x, aig.True)
	m.Done(r)
	m.Assume(x.Not())
	m.AssertAlways("stays0", r.Bit().Not())
	res := Check(m.N, 0, Options{Engine: EngineBMC1, MaxDepth: 10})
	if res.Kind != KindProof {
		t.Fatalf("constraint should make the property provable, got %v", res)
	}
}

func TestResultStrings(t *testing.T) {
	for _, k := range []Kind{KindNoCE, KindCE, KindProof, KindStable, KindTimeout} {
		if k.String() == "?" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
	r := &Result{Kind: KindProof, ProofSide: "forward"}
	if r.String() == "" {
		t.Fatalf("empty result string")
	}
}

func TestStatsPopulated(t *testing.T) {
	m := memEcho()
	r := Check(m.N, 0, Options{Engine: EngineBMC3, MaxDepth: 15})
	if r.Stats.SolveCalls == 0 || r.Stats.Clauses == 0 || r.Stats.Vars == 0 {
		t.Fatalf("stats not populated: %+v", r.Stats)
	}
	if r.Stats.EMM.Clauses() == 0 {
		t.Fatalf("EMM sizes not recorded")
	}
}
