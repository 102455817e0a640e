package bmc

import (
	"testing"

	"emmver/internal/designs"
	"emmver/internal/sat"
	"emmver/internal/share"
	"emmver/internal/unroll"
)

// assertSameVerdict checks the deterministic result fields agree between a
// baseline run and a cooperative run (witness input values may differ —
// any satisfying assignment is a valid counter-example).
func assertSameVerdict(t *testing.T, name string, base, coop *Result) {
	t.Helper()
	if base.Kind != coop.Kind || base.Depth != coop.Depth || base.ProofSide != coop.ProofSide {
		t.Fatalf("%s: baseline %v (%s) vs cooperative %v (%s)",
			name, base, base.ProofSide, coop, coop.ProofSide)
	}
	if (base.Witness == nil) != (coop.Witness == nil) {
		t.Fatalf("%s: witness presence differs", name)
	}
	if base.Witness != nil && base.Witness.Length != coop.Witness.Length {
		t.Fatalf("%s: witness length %d vs %d", name, base.Witness.Length, coop.Witness.Length)
	}
}

// coopModes enumerates the cooperative configurations a verdict must be
// invariant under: cube-only, share-only (via the single-prop fleet
// delegation), and cube+share.
var coopModes = []struct {
	name        string
	share, cube bool
}{
	{"cube", false, true},
	{"share+cube", true, true},
}

// TestCoopVerdictDeterminism runs every workload the acceptance list names
// (quicksort, filter, lookup, memory-free BMC-1) under the cooperative
// modes and checks the verdicts match the sequential engine's. Run with
// -race in CI to exercise the bus under contention.
func TestCoopVerdictDeterminism(t *testing.T) {
	qs := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 3, DataW: 4, StackAW: 3})
	fl := designs.NewImageFilter(designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 4})
	lk := designs.NewLookup(designs.LookupConfig{AW: 3, DW: 4, NumProps: 4, Latency: 3})
	counter := mod5Counter(3)

	cases := []struct {
		name string
		run  func(opt Options) *Result
		opt  Options
	}{
		{"quicksort/bmc2-p1", func(o Options) *Result { return Check(qs.Netlist(), qs.P1Index, o) }, BMC2(8)},
		{"quicksort/bmc3-p2", func(o Options) *Result { return Check(qs.Netlist(), qs.P2Index, o) }, Options{MaxDepth: 14, UseEMM: true, Proofs: true}},
		{"filter/p0", func(o Options) *Result { return Check(fl.Netlist(), fl.PropIndices()[0], o) }, BMC2(14)},
		{"lookup/p0", func(o Options) *Result { return Check(lk.Netlist(), lk.ReachIndices[0], o) }, BMC2(8)},
		{"bmc1/counter-ce", func(o Options) *Result { return Check(counter.N, 1, o) }, Options{MaxDepth: 10}},
		{"bmc1/counter-proof", func(o Options) *Result { return Check(counter.N, 0, o) }, Options{MaxDepth: 8, Proofs: true}},
	}
	for _, tc := range cases {
		tc.opt.ValidateWitness = true
		base := tc.run(tc.opt)
		for _, mode := range coopModes {
			opt := tc.opt
			opt.Share, opt.Cube, opt.Jobs = mode.share, mode.cube, 4
			coop := tc.run(opt)
			assertSameVerdict(t, tc.name+"/"+mode.name, base, coop)
		}
	}
}

// TestCoopSplitRefinement forces the conflict budget down so cubes split,
// and checks the refinement neither changes the verdict nor loses cubes.
func TestCoopSplitRefinement(t *testing.T) {
	old := cubeConflictBudget
	cubeConflictBudget = 1
	defer func() { cubeConflictBudget = old }()

	qs := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 3, DataW: 4, StackAW: 3})
	opt := BMC2(6)
	opt.ValidateWitness = true
	base := Check(qs.Netlist(), qs.P1Index, opt)
	opt.Share, opt.Cube, opt.Jobs = true, true, 4
	coop := Check(qs.Netlist(), qs.P1Index, opt)
	assertSameVerdict(t, "split-refinement", base, coop)
	if coop.Stats.CubeSplits == 0 {
		t.Errorf("budget=1 run recorded no cube splits")
	}
}

// TestShareFleetManyProps drives the multi-property fleet with the sharing
// bus on: verdicts must equal the sequential ones, and on an EMM workload
// with shared addresses the bus must actually carry clauses.
func TestShareFleetManyProps(t *testing.T) {
	f := designs.NewImageFilter(designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 8})
	opt := Options{MaxDepth: 3*4 + 6, UseEMM: true, Proofs: true, ValidateWitness: true}
	seq := CheckMany(f.Netlist(), f.PropIndices(), opt)
	opt.Share = true
	coop := CheckManyParallel(f.Netlist(), f.PropIndices(), opt, 4)
	assertSameVerdicts(t, seq, coop)
	if coop.Stats.SharedExported == 0 {
		t.Errorf("sharing fleet exported no clauses")
	}
}

// TestShareIneligiblePBA pins the soundness gate: a PBA run must not share
// or cube even when asked to (imported clauses have no derivation in the
// proof trace, and cores must reflect the worker's own clauses only).
func TestShareIneligiblePBA(t *testing.T) {
	qs := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 3, DataW: 4, StackAW: 3})
	opt := BMC3(10)
	opt.StopAtStable = true
	base := Check(qs.Netlist(), qs.P2Index, opt)
	opt.Share, opt.Cube, opt.Jobs = true, true, 4
	coop := Check(qs.Netlist(), qs.P2Index, opt)
	assertSameVerdict(t, "pba-gate", base, coop)
	if coop.Stats.SharedExported != 0 || coop.Stats.CubeSplits != 0 {
		t.Errorf("PBA run used cooperative machinery: exported=%d splits=%d",
			coop.Stats.SharedExported, coop.Stats.CubeSplits)
	}
	if (base.Tracker == nil) != (coop.Tracker == nil) {
		t.Errorf("pba-gate: tracker presence differs")
	}
}

// TestShareBridgePrivateRangeGuards pins the bridge's backstop against
// private intern ids crossing a process boundary: a clause whose comparator
// code is in the private range (coined locally after the transport died)
// must not be exported, and an imported clause carrying one must be dropped
// even when this worker's comps map holds the same base — for its own,
// different, private comparator.
func TestShareBridgePrivateRangeGuards(t *testing.T) {
	n := mod5Counter(3).N
	s := sat.New()
	u := unroll.New(n, s, unroll.Initialized)
	bus := share.NewBus(1, 8)
	bus.SetInterner(func(string) (uint64, bool) { return 0, false }) // dead transport: every id is private
	b := newShareBridge(bus, u, 0)

	priv := sat.MkLit(s.NewVar(), false)
	privBase := compCanonBase + bus.Intern("cmp:orphan")
	if privBase < compPrivateBase {
		t.Fatalf("dead-transport intern produced base %d below the private range", privBase)
	}
	u.SetCanon(priv, privBase)
	b.comps[privBase] = priv

	pub := sat.MkLit(s.NewVar(), false)
	pubBase := compCanonBase + 5
	u.SetCanon(pub, pubBase)
	b.comps[pubBase] = pub

	b.export([]sat.Lit{priv}, 2)
	if got := bus.Exported(); got != 0 {
		t.Fatalf("clause with private comparator code was exported (%d)", got)
	}
	if got := bus.Filtered(); got != 1 {
		t.Fatalf("private-code export not counted filtered (%d)", got)
	}
	b.export([]sat.Lit{pub}, 2)
	if got := bus.Exported(); got != 1 {
		t.Fatalf("broker-coded clause was not exported (%d)", got)
	}

	if _, ok := b.decode(privBase << 1); ok {
		t.Fatalf("private-range comparator code decoded on import")
	}
	if l, ok := b.decode(pubBase << 1); !ok || l != pub {
		t.Fatalf("broker-range comparator code failed to decode (%v, %v)", l, ok)
	}
}
