package unroll

import (
	"math/rand"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/rtl"
	"emmver/internal/sat"
	"emmver/internal/sim"
)

// counterDesign builds a w-bit counter that increments when en holds.
func counterDesign(w int) (*rtl.Module, aig.Lit, *rtl.Reg) {
	m := rtl.NewModule("counter")
	en := m.InputBit("en")
	r := m.Register("cnt", w, 0)
	r.Update(en, m.Inc(r.Q))
	m.Done(r)
	return m, en, r
}

func TestTagPacking(t *testing.T) {
	tg := MkTag(TagLatchNext, 17, 12345)
	if tg.Kind() != TagLatchNext || tg.Frame() != 17 || tg.Index() != 12345 {
		t.Fatalf("tag roundtrip failed: %v", tg)
	}
	if tg.String() == "" {
		t.Fatalf("empty tag string")
	}
	for _, k := range []TagKind{TagGate, TagLatchNext, TagLatchInit, TagEMM, TagEMMInit, TagConstraint, TagLFP, TagAux} {
		if k.String() == "?" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
}

func TestTagRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("out-of-range frame must panic")
		}
	}()
	MkTag(TagGate, 1<<20, 0)
}

func TestConstLits(t *testing.T) {
	s := sat.New()
	m := rtl.NewModule("t")
	u := New(m.N, s, Initialized)
	if u.TrueLit() != u.FalseLit().Not() {
		t.Fatalf("const lits inconsistent")
	}
	if !u.IsConst(u.TrueLit()) || !u.IsConst(u.FalseLit()) {
		t.Fatalf("IsConst wrong")
	}
	// The constant must be pinned.
	if s.Solve(u.FalseLit()) != sat.Unsat {
		t.Fatalf("false literal must be unsatisfiable")
	}
	if s.Solve(u.TrueLit()) != sat.Sat {
		t.Fatalf("true literal must be satisfiable")
	}
}

// TestUnrollMatchesSimulator drives the same random inputs through the
// unrolled CNF (via assumptions) and the concrete simulator, comparing the
// counter value at every frame.
func TestUnrollMatchesSimulator(t *testing.T) {
	const w, depth = 4, 12
	m, en, r := counterDesign(w)
	s := sat.New()
	u := New(m.N, s, Initialized)

	rng := rand.New(rand.NewSource(3))
	var assumps []sat.Lit
	var envals []bool
	for f := 0; f < depth; f++ {
		ev := rng.Intn(2) == 1
		envals = append(envals, ev)
		assumps = append(assumps, u.Lit(en, f).XorSign(!ev))
		// Make sure the counter cone is unrolled at this frame.
		u.VecLits(r.Q, f)
	}
	if got := s.Solve(assumps...); got != sat.Sat {
		t.Fatalf("unrolled trace must be satisfiable, got %v", got)
	}
	simu := sim.New(m.N)
	for f := 0; f < depth; f++ {
		simu.Begin(nil)
		simVal := simu.EvalVec(r.Q)
		cnfVal := u.ModelVec(r.Q, f)
		if simVal != cnfVal {
			t.Fatalf("frame %d: sim=%d cnf=%d", f, simVal, cnfVal)
		}
		simu.Step(map[aig.NodeID]bool{en.Node(): envals[f]})
	}
}

func TestInitializedVsFreeMode(t *testing.T) {
	m, _, r := counterDesign(2)
	isThree := m.EqConst(r.Q, 3)
	m.N.AddProperty("not3", isThree.Not())

	// Initialized: counter starts at 0, so ¬P at frame 0 is UNSAT.
	s1 := sat.New()
	u1 := New(m.N, s1, Initialized)
	if got := s1.Solve(u1.PropertyLit(0, 0).Not()); got != sat.Unsat {
		t.Fatalf("initialized frame-0 violation must be UNSAT, got %v", got)
	}
	// Free: frame 0 is arbitrary, so the violation is reachable.
	s2 := sat.New()
	u2 := New(m.N, s2, Free)
	if got := s2.Solve(u2.PropertyLit(0, 0).Not()); got != sat.Sat {
		t.Fatalf("free frame-0 violation must be SAT, got %v", got)
	}
}

func TestFoldInitsEquivalence(t *testing.T) {
	m, en, r := counterDesign(3)
	three := m.EqConst(r.Q, 3)
	m.N.AddProperty("reach3", three.Not())
	_ = en
	for _, fold := range []bool{false, true} {
		s := sat.New()
		u := New(m.N, s, Initialized)
		u.FoldInits = fold
		// The counter can reach 3 first at frame 3.
		for f := 0; f <= 3; f++ {
			got := s.Solve(u.PropertyLit(0, f).Not())
			want := sat.Unsat
			if f == 3 {
				want = sat.Sat
			}
			if got != want {
				t.Fatalf("fold=%v frame %d: got %v want %v", fold, f, got, want)
			}
		}
	}
}

func TestLoopFreePath(t *testing.T) {
	m, en, _ := counterDesign(2) // 4 reachable states
	_ = en
	s := sat.New()
	u := New(m.N, s, Initialized)
	// Depths 0..3 visit up to 4 distinct states: loop-free paths exist.
	for d := 0; d <= 3; d++ {
		if got, _ := solveLoopFree(u, d); got != sat.Sat {
			t.Fatalf("depth %d: expected SAT, got %v", d, got)
		}
	}
	// Depth 4 needs 5 distinct states out of 4: impossible.
	if got, _ := solveLoopFree(u, 4); got != sat.Unsat {
		t.Fatalf("depth 4: expected UNSAT (diameter reached)")
	}
}

func TestLoopFreePathFreeMode(t *testing.T) {
	m, _, _ := counterDesign(2)
	s := sat.New()
	u := New(m.N, s, Free)
	// From an arbitrary start, 4 distinct states still fit, 5 do not.
	if got, _ := solveLoopFree(u, 3); got != sat.Sat {
		t.Fatalf("depth 3 free: expected SAT, got %v", got)
	}
	if got, _ := solveLoopFree(u, 4); got != sat.Unsat {
		t.Fatalf("depth 4 free: expected UNSAT, got %v", got)
	}
}

func TestStatelessLoopFree(t *testing.T) {
	m := rtl.NewModule("comb")
	a := m.InputBit("a")
	m.N.AddProperty("p", a)
	s := sat.New()
	u := New(m.N, s, Initialized)
	if u.LoopFreeLit(0) != u.TrueLit() {
		t.Fatalf("stateless depth-0 LFP must be true")
	}
	if u.LoopFreeLit(1) != u.FalseLit() {
		t.Fatalf("stateless depth-1 LFP must be false")
	}
}

func TestAbstractedLatchIsFree(t *testing.T) {
	m, _, r := counterDesign(2)
	isThree := m.EqConst(r.Q, 3)
	m.N.AddProperty("not3", isThree.Not())
	s := sat.New()
	u := New(m.N, s, Initialized)
	for _, q := range r.Q {
		u.Abstracted[q.Node()] = true
	}
	// With the counter abstracted, the violation is immediate.
	if got := s.Solve(u.PropertyLit(0, 0).Not()); got != sat.Sat {
		t.Fatalf("abstracted latches must make frame-0 violation SAT")
	}
}

func TestCoreContainsLatchTags(t *testing.T) {
	m, en, r := counterDesign(2)
	_ = en
	isThree := m.EqConst(r.Q, 3)
	m.N.AddProperty("not3", isThree.Not())
	s := sat.New()
	s.EnableProofTracing()
	u := New(m.N, s, Initialized)
	// Frame-1 violation is UNSAT (counter can be at most 1).
	if got := s.Solve(u.PropertyLit(0, 1).Not()); got != sat.Unsat {
		t.Fatalf("expected UNSAT")
	}
	var sawLatch bool
	for _, raw := range s.Core() {
		tg := Tag(raw)
		if tg.Kind() == TagLatchNext || tg.Kind() == TagLatchInit {
			sawLatch = true
		}
	}
	if !sawLatch {
		t.Fatalf("core must mention latch clauses")
	}
}

func TestConstraintsRestrictBehavior(t *testing.T) {
	m, en, r := counterDesign(2)
	m.Assume(en.Not()) // counter never enabled
	nonzero := m.NonZero(r.Q)
	m.N.AddProperty("zero", nonzero.Not())
	s := sat.New()
	u := New(m.N, s, Initialized)
	for f := 0; f <= 4; f++ {
		u.AssertConstraints(f)
		if got := s.Solve(u.PropertyLit(0, f).Not()); got != sat.Unsat {
			t.Fatalf("frame %d: constrained counter must stay 0", f)
		}
	}
}

func TestMemReadNodesAreFree(t *testing.T) {
	m := rtl.NewModule("t")
	mem := m.Memory("ram", 2, 4, aig.MemZero)
	rd := mem.Read(m.Input("addr", 2), aig.True)
	m.N.AddProperty("rd0", m.IsZero(rd))
	s := sat.New()
	u := New(m.N, s, Initialized)
	// Without EMM constraints, read data is unconstrained: violation SAT.
	if got := s.Solve(u.PropertyLit(0, 0).Not()); got != sat.Sat {
		t.Fatalf("unconstrained read data must allow violation")
	}
}

func TestModelVecAndBit(t *testing.T) {
	m := rtl.NewModule("t")
	a := m.Input("a", 4)
	s := sat.New()
	u := New(m.N, s, Initialized)
	var assumps []sat.Lit
	want := uint64(0b1010)
	for i, l := range a {
		assumps = append(assumps, u.Lit(l, 0).XorSign(want>>uint(i)&1 == 0))
	}
	if s.Solve(assumps...) != sat.Sat {
		t.Fatalf("expected SAT")
	}
	if got := u.ModelVec(a, 0); got != want {
		t.Fatalf("ModelVec got %#x want %#x", got, want)
	}
	if u.ModelBit(a[1], 0) != true || u.ModelBit(a[0], 0) != false {
		t.Fatalf("ModelBit wrong")
	}
}

func TestFramesGrowLazily(t *testing.T) {
	m, en, _ := counterDesign(2)
	s := sat.New()
	u := New(m.N, s, Initialized)
	if u.Frames() != 0 {
		t.Fatalf("no frames should exist initially")
	}
	u.Lit(en, 5)
	if u.Frames() != 6 {
		t.Fatalf("expected 6 frames, got %d", u.Frames())
	}
}

// phaseVal is the value literal l takes under the solver's saved phases.
func phaseVal(s *sat.Solver, l sat.Lit) bool { return s.Phase(l.Var()) != l.Sign() }

// TestShiftPhasesFollowsModel shifts the phases a SAT answer left behind:
// afterwards every node at frame t carries the model value it had at frame
// t-1, and frame 0 keeps its own.
func TestShiftPhasesFollowsModel(t *testing.T) {
	const depth = 4
	m, en, r := counterDesign(3)
	s := sat.New()
	u := New(m.N, s, Free)
	for f := 0; f <= depth; f++ {
		u.VecLits(r.Q, f)
		u.Lit(en, f)
	}
	// Pin a trace whose counter values differ at every frame.
	if got := s.Solve(u.Lit(en, 0), u.Lit(en, 1), u.Lit(en, 2), u.Lit(en, 3).Not()); got != sat.Sat {
		t.Fatalf("counter trace must be satisfiable, got %v", got)
	}
	old := make([][]bool, depth+1)
	for f := range old {
		old[f] = make([]bool, m.N.NumNodes())
		for id, l := range u.frames[f].vals {
			if l != sat.LitUndef {
				old[f][id] = s.LitValue(l) == sat.True
			}
		}
	}
	u.ShiftPhases(depth)
	checked := 0
	for f := 0; f <= depth; f++ {
		for id, l := range u.frames[f].vals {
			if l == sat.LitUndef || u.IsConst(l) {
				continue
			}
			want := old[f][id] // frame 0 is only read
			if f > 0 {
				if prev := u.frames[f-1].vals[id]; prev == sat.LitUndef || u.IsConst(prev) {
					continue
				}
				want = old[f-1][id]
			}
			if got := phaseVal(s, l); got != want {
				t.Errorf("node %d frame %d: phase %v, want %v", id, f, got, want)
			}
			checked++
		}
	}
	if checked < depth*len(r.Q) {
		t.Fatalf("only %d frame values checked", checked)
	}
}

// TestShiftPhasesSignsAndSkips pins the per-entry rules on hand-built frame
// tables: the value (not the variable's phase) moves across opposite signs
// and a variable shared by two frames, unbuilt and constant entries are
// skipped, frame 0 is never written, and depth bounds the shifted frames.
func TestShiftPhasesSignsAndSkips(t *testing.T) {
	m := rtl.NewModule("shift")
	var ids []aig.NodeID
	for _, name := range []string{"opp", "shared", "unbuilt", "const0", "const2"} {
		ids = append(ids, m.InputBit(name).Node())
	}
	opp, shared, unbuilt, const0, const2 := ids[0], ids[1], ids[2], ids[3], ids[4]
	s := sat.New()
	u := New(m.N, s, Free)
	for f := 0; f < 3; f++ {
		for _, id := range ids {
			u.InputLit(id, f)
		}
	}
	vals := func(f int) []sat.Lit { return u.frames[f].vals }
	vals(1)[opp] = vals(1)[opp].Not()       // opposite sign to frames 0 and 2
	vals(1)[shared] = vals(0)[shared].Not() // frames 0 and 1 share one variable
	vals(1)[unbuilt] = sat.LitUndef
	vals(0)[const0] = u.TrueLit()
	vals(2)[const2] = u.TrueLit()
	for v := 1; v < s.NumVars(); v++ {
		s.SetPhase(sat.Var(v), v%3 == 0)
	}
	constPhase := s.Phase(u.TrueLit().Var())
	// Values a wrongly copied constant would contradict.
	setVal := func(l sat.Lit, v bool) { s.SetPhase(l.Var(), v != l.Sign()) }
	setVal(vals(1)[const0], !phaseVal(s, u.TrueLit()))
	setVal(vals(1)[const2], !constPhase)
	old := map[[2]int]bool{}
	for f := 0; f < 3; f++ {
		for _, id := range ids {
			if l := vals(f)[id]; l != sat.LitUndef {
				old[[2]int{f, int(id)}] = phaseVal(s, l)
			}
		}
	}
	was := func(f int, id aig.NodeID) bool { return old[[2]int{f, int(id)}] }
	expect := func(what string, f int, id aig.NodeID, want bool) {
		t.Helper()
		if got := phaseVal(s, vals(f)[id]); got != want {
			t.Errorf("%s: frame %d value %v, want %v", what, f, got, want)
		}
	}

	u.ShiftPhases(2)
	expect("opposite signs", 1, opp, was(0, opp))
	expect("opposite signs", 2, opp, was(1, opp))
	expect("shared variable", 1, shared, was(0, shared))
	expect("shared variable", 2, shared, was(1, shared))
	expect("unbuilt source", 2, unbuilt, was(2, unbuilt))
	expect("constant source", 1, const0, was(1, const0))
	expect("constant target's neighbour", 1, const2, was(0, const2))
	if s.Phase(u.TrueLit().Var()) != constPhase {
		t.Errorf("constant variable's phase was written")
	}
	for _, id := range []aig.NodeID{opp, unbuilt, const2} {
		expect("frame 0", 0, id, was(0, id))
	}

	// A shallower depth leaves the later frames alone.
	setVal(vals(1)[opp], !was(0, opp))
	frame2 := phaseVal(s, vals(2)[opp])
	u.ShiftPhases(1)
	expect("depth bound", 2, opp, frame2)
	expect("depth bound", 1, opp, was(0, opp))
}

// TestConstantNextStateFolds pins the fold of constant next-state latches:
// in an initialized window with FoldInits a reset counter is a structural
// constant at every frame, while the PBA path (FoldInits off), InitX
// latches and input-driven latches keep interface variables.
func TestConstantNextStateFolds(t *testing.T) {
	const w, depth = 3, 10
	build := func() (*rtl.Module, *rtl.Reg, *rtl.Reg, *rtl.Reg) {
		m := rtl.NewModule("fold")
		cnt := m.Register("cnt", w, 0)
		cnt.Update(aig.True, m.Inc(cnt.Q))
		xcnt := m.RegisterX("xcnt", w)
		xcnt.Update(aig.True, m.Inc(xcnt.Q))
		d := m.Register("d", 1, 0)
		d.Update(aig.True, m.Input("in", 1))
		m.Done(cnt, xcnt, d)
		m.N.AddProperty("cnt-not-depth", m.EqConst(cnt.Q, depth%(1<<w)).Not())
		return m, cnt, xcnt, d
	}
	constVal := func(u *Unroller, v []aig.Lit, f int) (uint64, bool) {
		var out uint64
		for i, l := range u.VecLits(v, f) {
			if !u.IsConst(l) {
				return 0, false
			}
			if l == u.TrueLit() {
				out |= 1 << uint(i)
			}
		}
		return out, true
	}

	t.Run("folded", func(t *testing.T) {
		m, cnt, xcnt, d := build()
		s := sat.New()
		u := New(m.N, s, Initialized)
		u.FoldInits = true
		for f := 0; f <= depth; f++ {
			got, ok := constVal(u, cnt.Q, f)
			if !ok || got != uint64(f)%(1<<w) {
				t.Fatalf("frame %d: counter const=%v value %d, want constant %d", f, ok, got, f%(1<<w))
			}
			if _, ok := constVal(u, xcnt.Q, f); ok {
				t.Fatalf("frame %d: InitX counter folded", f)
			}
			if _, ok := constVal(u, d.Q, f); ok != (f == 0) {
				t.Fatalf("frame %d: input-driven latch const=%v, want %v", f, ok, f == 0)
			}
		}
	})

	t.Run("pba-keeps-latch-next", func(t *testing.T) {
		m, cnt, _, _ := build()
		s := sat.New()
		s.EnableProofTracing()
		u := New(m.N, s, Initialized)
		for f := 1; f <= depth; f++ {
			if _, ok := constVal(u, cnt.Q, f); ok {
				t.Fatalf("frame %d: counter folded with FoldInits off", f)
			}
		}
		// The counter holds depth mod 8 at frame depth; the core of that
		// must name the latch interface clauses of the last frame.
		if got := s.Solve(u.PropertyLit(0, depth)); got != sat.Unsat {
			t.Fatalf("counter must equal %d at frame %d, got %v", depth%(1<<w), depth, got)
		}
		saw := false
		for _, raw := range s.Core() {
			if tg := Tag(raw); tg.Kind() == TagLatchNext && tg.Frame() == depth {
				saw = true
			}
		}
		if !saw {
			t.Fatalf("core lacks TagLatchNext clauses at frame %d", depth)
		}
	})

	t.Run("lfp-and-phases", func(t *testing.T) {
		m, _, _, _ := build()
		s := sat.New()
		u := New(m.N, s, Initialized)
		u.FoldInits = true
		// The counter is a constant of period 8 and xcnt follows it, so
		// the only freedom is d: frames 0, 8 and 16 share a counter value
		// and d (0 at frame 0) cannot take three distinct values.
		for d := 0; d <= 16; d++ {
			want := sat.Sat
			if d == 16 {
				want = sat.Unsat
			}
			if got, _ := solveLoopFree(u, d); got != want {
				t.Fatalf("depth %d: LFP %v, want %v", d, got, want)
			}
			u.ShiftPhases(d)
		}
	})
}
