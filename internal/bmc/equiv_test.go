package bmc

import (
	"os"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/designs"
	"emmver/internal/expmem"
	"emmver/internal/rtl"
	"emmver/internal/verilog"
)

// The strash/memoization equivalence suite: on the Table 1 design
// (quicksort) and the Table 2 stand-ins (image filter / Industry I, lookup
// engine / Industry II), every BMC-1/2/3 verdict and witness depth must be
// identical with the optimizations on (the default) and off — structural
// hashing, comparator memoization and the read-event sharing that follows
// it only share logically equal definitions, so they may change formula
// size but never answers.

// assertEquiv runs opt as-is and with both optimizations disabled,
// compares the outcomes, and returns both results.
func assertEquiv(t *testing.T, name string, run func(opt Options) *Result, opt Options) (on, off *Result) {
	t.Helper()
	on = run(opt)
	offOpt := opt
	offOpt.DisableStrash = true
	offOpt.DisableEMMMemo = true
	offR := run(offOpt)
	if on.Kind != offR.Kind || on.Depth != offR.Depth || on.ProofSide != offR.ProofSide {
		t.Errorf("%s: optimized %v (%s) vs unoptimized %v (%s)",
			name, on, on.ProofSide, offR, offR.ProofSide)
	}
	if (on.Witness == nil) != (offR.Witness == nil) {
		t.Errorf("%s: witness presence differs", name)
	} else if on.Witness != nil && on.Witness.Length != offR.Witness.Length {
		t.Errorf("%s: witness length %d vs %d", name, on.Witness.Length, offR.Witness.Length)
	}
	// Sharing must never grow the EMM constraint set. (Solver-level clause
	// counts are not comparable across the two runs: level-0 clause
	// simplification depends on search history, which legitimately differs
	// once variable numbering changes.)
	onEMM := on.Stats.EMM.Clauses() + on.Stats.EMM.InitClauses
	offEMM := offR.Stats.EMM.Clauses() + offR.Stats.EMM.InitClauses
	if onEMM > offEMM {
		t.Errorf("%s: optimized run emitted MORE EMM clauses (%d) than unoptimized (%d)",
			name, onEMM, offEMM)
	}
	return on, offR
}

func TestStrashEquivalenceQuickSort(t *testing.T) {
	// Table 1 design, reduced widths. P1 finds no CE in the bound; P2
	// (stack discipline) is provable.
	q := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 3, DataW: 4, StackAW: 3})
	n := q.Netlist()
	for _, tc := range []struct {
		name string
		prop int
		opt  Options
	}{
		{"bmc2-p1", q.P1Index, Options{Engine: EngineBMC2, MaxDepth: 8}},
		{"bmc3-p2", q.P2Index, Options{Engine: EngineBMC3, MaxDepth: 14}},
	} {
		tc.opt.ValidateWitness = true
		assertEquiv(t, "quicksort/"+tc.name, func(opt Options) *Result {
			return Check(n, tc.prop, opt)
		}, tc.opt)
	}
}

func TestStrashEquivalenceImageFilter(t *testing.T) {
	// Industry I stand-in: reachability properties with shallow witnesses.
	f := designs.NewImageFilter(designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 8})
	n := f.Netlist()
	for _, prop := range []int{0, 3, 7} {
		opt := Options{Engine: EngineBMC2, MaxDepth: 3*4 + 10}
		opt.ValidateWitness = true
		assertEquiv(t, "filter", func(opt Options) *Result {
			return Check(n, prop, opt)
		}, opt)
	}
}

func TestStrashEquivalenceLookup(t *testing.T) {
	// Industry II stand-in: the invariant proves by induction over the EMM
	// model (BMC-3 exercises proofs + arbitrary init).
	l := designs.NewLookup(designs.LookupConfig{AW: 3, DW: 4, NumProps: 4, Latency: 3})
	n := l.Netlist()
	opt := Options{Engine: EngineBMC3, MaxDepth: 12}
	assertEquiv(t, "lookup/inv", func(opt Options) *Result {
		return Check(n, l.InvariantIndex, opt)
	}, opt)
}

func TestStrashEquivalenceBMC1Explicit(t *testing.T) {
	// BMC-1 runs on the memory-free explicit model (only strash matters
	// there; there are no EMM comparators).
	q := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 2, DataW: 3, StackAW: 2})
	n, _, err := expmem.Expand(q.Netlist())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Engine: EngineBMC1, MaxDepth: 10}
	assertEquiv(t, "quicksort/bmc1-explicit", func(opt Options) *Result {
		return Check(n, q.P2Index, opt)
	}, opt)
}

func TestStrashEquivalenceSharedReads(t *testing.T) {
	// The growth shape with every port on one address bus and both reads
	// always enabled: each frame's second read duplicates the first, so
	// the optimized run shares it (RD1 = RD0) where the unoptimized run
	// builds a second chain, initial word and eq. 6 pairs.
	m := rtl.NewModule("growth-shared")
	mem := m.Memory("mem", 3, 4, aig.MemArbitrary)
	a := m.Input("a", 3)
	mem.Write(a, m.Input("wd", 4), m.InputBit("we"))
	rd0, rd1 := mem.Read(a, aig.True), mem.Read(a, aig.True)
	m.Done()
	m.AssertAlways("agree", m.Eq(rd0, rd1))
	for _, tc := range []struct {
		name   string
		opt    Options
		shared bool // proof tracing tracks cores, which turns sharing off
	}{
		{"bmc2", Options{Engine: EngineBMC2, MaxDepth: 8}, true},
		{"bmc3", Options{Engine: EngineBMC3, MaxDepth: 8}, true},
		{"bmc3-traced", Options{Engine: EngineBMC3, MaxDepth: 8, pba: true}, false},
	} {
		tc.opt.ValidateWitness = true
		on, off := assertEquiv(t, "growth-shared/"+tc.name, func(opt Options) *Result {
			return Check(m.N, 0, opt)
		}, tc.opt)
		if (on.Stats.EMM.SharedReads > 0) != tc.shared || off.Stats.EMM.SharedReads != 0 {
			t.Errorf("growth-shared/%s: shared reads %d optimized, %d unoptimized; want sharing %v, then none",
				tc.name, on.Stats.EMM.SharedReads, off.Stats.EMM.SharedReads, tc.shared)
		}
	}
}

// TestPlantedBugSharesReads runs the planted-bug shape (serve/testdata/
// planted.v): read 1's address is ite(cnt == 12, a ^ 8'h5a, a) with a
// reset counter. The counter folds to a constant at every frame of the
// initialized window, so read 1 duplicates read 0 at every frame but 12
// and the generator shares those twelve reads; the CE stays at depth 12
// and replays.
func TestPlantedBugSharesReads(t *testing.T) {
	src, err := os.ReadFile("../serve/testdata/planted.v")
	if err != nil {
		t.Fatal(err)
	}
	n, err := verilog.ElaborateString(string(src), "planted")
	if err != nil {
		t.Fatal(err)
	}
	r := Check(n, 0, Options{Engine: EngineBMC2, MaxDepth: 14, ValidateWitness: true})
	if r.Kind != KindCE || r.Depth != 12 {
		t.Fatalf("planted bug: got %v, want CE at depth 12", r)
	}
	if got := r.Stats.EMM.SharedReads; got != 12 {
		t.Errorf("planted bug: %d shared reads, want 12 (frames 0-11)", got)
	}
	if err := r.Witness.Replay(n, 0); err != nil {
		t.Errorf("planted bug witness does not replay: %v", err)
	}
}
