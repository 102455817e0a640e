package bmc

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"emmver/internal/designs"
	"emmver/internal/expmem"
	"emmver/internal/obs"
	"emmver/internal/sat"
)

// The inprocessing equivalence suite: Simplify only removes clauses implied
// by the rest of the database and only eliminates variables no future depth
// can mention (the unroller freezes the frame frontier, the EMM generator
// its interface signals), so every verdict, proof side, and witness depth
// must match a run with inprocessing off — under both restart schedules.

// assertInprocEquiv runs opt with inprocessing on (the default) and off and
// compares outcomes. Witnesses from the inprocessing run are additionally
// replayed on the concrete simulator (ValidateWitness), so a model corrupted
// by variable elimination fails loudly rather than just differing in length.
func assertInprocEquiv(t *testing.T, name string, run func(opt Options) *Result, opt Options) {
	t.Helper()
	// The case-study designs are small enough that the conflict gate would
	// skip most passes; force every pass so the equivalence check actually
	// exercises Simplify.
	defer func(mc, cd int64) {
		simplifyMinConflicts, simplifyClausesPerConfl = mc, cd
	}(simplifyMinConflicts, simplifyClausesPerConfl)
	simplifyMinConflicts, simplifyClausesPerConfl = 0, 0
	opt.ValidateWitness = true
	for _, mode := range []sat.RestartMode{sat.RestartEMA, sat.RestartLuby} {
		opt.Restart = mode
		noSimp := opt
		noSimp.NoSimplify = true
		on, off := run(opt), run(noSimp)
		tag := fmt.Sprintf("%s/%v", name, mode)
		if on.Kind != off.Kind || on.Depth != off.Depth || on.ProofSide != off.ProofSide {
			t.Errorf("%s: inprocessing %v (%s) vs off %v (%s)",
				tag, on, on.ProofSide, off, off.ProofSide)
		}
		if (on.Witness == nil) != (off.Witness == nil) {
			t.Errorf("%s: witness presence differs", tag)
		} else if on.Witness != nil && on.Witness.Length != off.Witness.Length {
			t.Errorf("%s: witness length %d vs %d", tag, on.Witness.Length, off.Witness.Length)
		}
		if off.Stats.Simplifies != 0 {
			t.Errorf("%s: NoSimplify run still simplified %d times", tag, off.Stats.Simplifies)
		}
		if !opt.pba && on.Depth > 0 && on.Stats.Simplifies == 0 {
			t.Errorf("%s: multi-depth run never ran the inprocessing pass", tag)
		}
	}
}

func TestInprocEquivalenceQuickSort(t *testing.T) {
	q := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 3, DataW: 4, StackAW: 3})
	n := q.Netlist()
	for _, tc := range []struct {
		name string
		prop int
		opt  Options
	}{
		{"bmc2-p1", q.P1Index, Options{Engine: EngineBMC2, MaxDepth: 8}},
		// Proofs without PBA: the backward solver participates in the
		// between-depth Simplify as well.
		{"proofs-p2", q.P2Index, Options{Engine: EngineBMC3, MaxDepth: 14}},
	} {
		assertInprocEquiv(t, "quicksort/"+tc.name, func(opt Options) *Result {
			return Check(n, tc.prop, opt)
		}, tc.opt)
	}
}

func TestInprocEquivalenceImageFilter(t *testing.T) {
	f := designs.NewImageFilter(designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 8})
	n := f.Netlist()
	for _, prop := range []int{0, 3, 7} {
		assertInprocEquiv(t, fmt.Sprintf("filter/p%d", prop), func(opt Options) *Result {
			return Check(n, prop, opt)
		}, Options{Engine: EngineBMC2, MaxDepth: 3*4 + 10})
	}
}

func TestInprocEquivalenceLookup(t *testing.T) {
	l := designs.NewLookup(designs.LookupConfig{AW: 3, DW: 4, NumProps: 4, Latency: 3})
	n := l.Netlist()
	assertInprocEquiv(t, "lookup/inv", func(opt Options) *Result {
		return Check(n, l.InvariantIndex, opt)
	}, Options{Engine: EngineBMC3, MaxDepth: 12})
}

func TestInprocEquivalenceBMC1Explicit(t *testing.T) {
	q := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 2, DataW: 3, StackAW: 2})
	n, _, err := expmem.Expand(q.Netlist())
	if err != nil {
		t.Fatal(err)
	}
	assertInprocEquiv(t, "quicksort/bmc1-explicit", func(opt Options) *Result {
		return Check(n, q.P2Index, opt)
	}, Options{Engine: EngineBMC1, MaxDepth: 10})
}

func TestInprocEquivalenceCheckMany(t *testing.T) {
	// The shared-unrolling multi-property run simplifies between depths
	// while properties are still open; verdicts per property must be
	// unaffected.
	f := designs.NewImageFilter(designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 8})
	n := f.Netlist()
	props := []int{0, 2, 5, 7}
	opt := Options{Engine: EngineBMC2, MaxDepth: 3*4 + 10}
	opt.ValidateWitness = true
	on := CheckManyParallel(n, props, opt, 1)
	opt.NoSimplify = true
	off := CheckManyParallel(n, props, opt, 1)
	for pi := range props {
		a, b := on.Results[pi], off.Results[pi]
		if a.Kind != b.Kind || a.Depth != b.Depth {
			t.Errorf("prop %d: inprocessing %v vs off %v", props[pi], a, b)
		}
	}
}

// TestInprocPBASkipped pins satellite 1's contract: under PBA the engine
// skips inprocessing entirely, so the latch-reason set harvested from UNSAT
// cores is identical whether or not the caller left simplification enabled.
func TestInprocPBASkipped(t *testing.T) {
	l := designs.NewLookup(designs.LookupConfig{AW: 3, DW: 4, NumProps: 4, Latency: 3})
	n := l.Netlist()
	opt := Options{Engine: EngineBMC3, MaxDepth: 12, pba: true}
	on := Check(n, l.InvariantIndex, opt)
	opt.NoSimplify = true
	off := Check(n, l.InvariantIndex, opt)
	if on.Stats.Simplifies != 0 || off.Stats.Simplifies != 0 {
		t.Fatalf("PBA run must never simplify (got %d / %d)",
			on.Stats.Simplifies, off.Stats.Simplifies)
	}
	if on.Tracker == nil || off.Tracker == nil {
		t.Fatal("PBA run returned no tracker")
	}
	a := fmt.Sprint(on.Tracker.Sorted())
	b := fmt.Sprint(off.Tracker.Sorted())
	if a != b {
		t.Fatalf("latch-reason sets differ under PBA: %s vs %s", a, b)
	}
	if on.Kind != off.Kind || on.Depth != off.Depth {
		t.Fatalf("PBA verdict differs: %v vs %v", on, off)
	}
}

// TestInprocTracingGuard drives the solver-level double guard directly: a
// solver with proof tracing on refuses Simplify with ErrTracingActive and
// leaves its clause database untouched.
func TestInprocTracingGuard(t *testing.T) {
	q := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 2, DataW: 3, StackAW: 2})
	opt := Options{Engine: EngineBMC2, MaxDepth: 6}
	opt.pba = true // tracing on, simplify skipped by the engine guard
	r := Check(q.Netlist(), q.P1Index, opt)
	if r.Stats.Simplifies != 0 || r.Stats.EliminatedVars != 0 {
		t.Fatalf("tracing run reported inprocessing work: %+v", r.Stats)
	}
}

// cutSink records trace events and the position at which the run was
// cancelled.
type cutSink struct {
	mu     sync.Mutex
	events []obs.Event
	cut    int
}

func (s *cutSink) Emit(ev obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// writerFunc adapts a function to io.Writer.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestCheckManyEndsAtDeadline cancels a one-group CheckManyParallel from
// its own log writer at the first counter-example, partway through depth
// 0, with inprocessing forced after every undecided depth. The depth that timed out
// must end the run: no inprocessing pass may start after the cancellation,
// and every property still open times out at that depth.
func TestCheckManyEndsAtDeadline(t *testing.T) {
	defer func(mc, cd int64) {
		simplifyMinConflicts, simplifyClausesPerConfl = mc, cd
	}(simplifyMinConflicts, simplifyClausesPerConfl)
	simplifyMinConflicts, simplifyClausesPerConfl = 0, 0

	m, props := manyCounter()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cutSink{cut: -1}
	var once sync.Once
	opt := Options{MaxDepth: 12, Obs: obs.New(nil, sink), Log: writerFunc(func(p []byte) (int, error) {
		once.Do(func() {
			sink.mu.Lock()
			sink.cut = len(sink.events)
			sink.mu.Unlock()
			cancel()
		})
		return len(p), nil
	})}
	mr := CheckManyParallelCtx(ctx, m.N, props, opt, 1)

	if sink.cut < 0 {
		t.Fatal("the run never logged, so it was never cancelled")
	}
	for i, ev := range sink.events[sink.cut:] {
		if ev.Name == "bmc.simplify" && ev.Ev == "start" {
			t.Fatalf("inprocessing pass started %d events after the cancellation", i)
		}
	}
	if r := mr.Results[0]; r.Kind != KindCE || r.Depth != 0 {
		t.Fatalf("prop 0: %v depth %d, want CE depth 0", r.Kind, r.Depth)
	}
	for pi, r := range mr.Results[1:] {
		if r.Kind != KindTimeout || r.Depth != 0 {
			t.Errorf("prop %d: %v depth %d, want TIMEOUT depth 0", pi+1, r.Kind, r.Depth)
		}
	}
}
