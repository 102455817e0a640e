package bmc

import (
	"context"
	"strings"
	"testing"

	"emmver/internal/designs"
	"emmver/internal/expmem"
	"emmver/internal/rtl"
)

// The compile-pipeline equivalence suite: on the Table 1/Table 2 designs,
// every verdict must be identical with the static pass pipeline off, fully
// on, and under every individual pass. Counter-example depths are semantic
// (the shortest violation) and must match exactly; proof depths may only
// move EARLIER with passes on, because constant sweeping and cone
// reduction strengthen induction (fewer free latches in the window) but
// never weaken it. Every witness found on a compiled netlist must replay
// cleanly on the ORIGINAL netlist — that is the back-mapping contract.

// passSpecs is every pass combination the suite exercises, including
// all-off and the default full pipeline.
var passSpecs = []string{
	"none",
	"coi",
	"sweep",
	"ports",
	"dedup",
	"coi,sweep",
	"coi,ports",
	"sweep,ports,dedup",
	"coi,sweep,ports,dedup",
	"", // default spec
}

func assertPassEquiv(t *testing.T, name string, run func(opt Options) *Result, opt Options) {
	t.Helper()
	base := opt
	base.Passes = "none"
	off := run(base)
	for _, spec := range passSpecs[1:] {
		o := opt
		o.Passes = spec
		on := run(o)
		if on.Kind != off.Kind {
			t.Errorf("%s [passes=%q]: verdict %v vs %v with passes off", name, spec, on, off)
			continue
		}
		switch on.Kind {
		case KindCE, KindNoCE:
			if on.Depth != off.Depth {
				t.Errorf("%s [passes=%q]: depth %d vs %d with passes off", name, spec, on.Depth, off.Depth)
			}
		case KindProof:
			if on.Depth > off.Depth {
				t.Errorf("%s [passes=%q]: proof depth %d LATER than passes-off %d", name, spec, on.Depth, off.Depth)
			}
		}
		if (on.Witness == nil) != (off.Witness == nil) {
			t.Errorf("%s [passes=%q]: witness presence differs", name, spec)
		}
	}
}

func TestPassEquivalenceQuickSort(t *testing.T) {
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
		assertPassEquiv(t, "quicksort/"+tc.name, func(opt Options) *Result {
			return Check(n, tc.prop, opt)
		}, tc.opt)
	}
}

func TestPassEquivalenceImageFilter(t *testing.T) {
	f := designs.NewImageFilter(designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 8})
	n := f.Netlist()
	for _, prop := range []int{0, 7} {
		opt := Options{Engine: EngineBMC2, MaxDepth: 3*4 + 10}
		opt.ValidateWitness = true
		assertPassEquiv(t, "filter", func(opt Options) *Result {
			return Check(n, prop, opt)
		}, opt)
	}
}

func TestPassEquivalenceLookup(t *testing.T) {
	l := designs.NewLookup(designs.LookupConfig{AW: 3, DW: 4, NumProps: 4, Latency: 3})
	n := l.Netlist()
	assertPassEquiv(t, "lookup/inv", func(opt Options) *Result {
		return Check(n, l.InvariantIndex, opt)
	}, Options{Engine: EngineBMC3, MaxDepth: 12})
}

func TestPassEquivalenceBMC1Explicit(t *testing.T) {
	// The Explicit Modeling baseline: memories expanded to latches BEFORE
	// verification; the pipeline then runs on the expanded netlist.
	f := designs.NewImageFilter(designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 4})
	exp, _, err := expmem.Expand(f.Netlist())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Engine: EngineBMC1, MaxDepth: 3*4 + 10}
	opt.ValidateWitness = true
	assertPassEquiv(t, "filter/bmc1-explicit", func(opt Options) *Result {
		return Check(exp, 0, opt)
	}, opt)
}

func TestPassEquivalenceCheckMany(t *testing.T) {
	f := designs.NewImageFilter(designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 8})
	n := f.Netlist()
	props := make([]int, len(n.Props))
	for pi := range props {
		props[pi] = pi
	}
	opt := Options{Engine: EngineBMC2, MaxDepth: 3*4 + 10}
	opt.ValidateWitness = true
	none := opt
	none.Passes = "none"
	off := CheckManyParallel(n, props, none, 1)
	for _, spec := range []string{"", "coi,sweep", "ports"} {
		opt.Passes = spec
		on := CheckManyParallel(n, props, opt, 1)
		for pi := range props {
			or, nr := off.Results[pi], on.Results[pi]
			if or.Kind != nr.Kind || or.Depth != nr.Depth {
				t.Errorf("prop %d [passes=%q]: %v vs %v with passes off", pi, spec, nr, or)
			}
			if nr.Prop != pi {
				t.Errorf("prop %d [passes=%q]: result Prop=%d not back-mapped", pi, spec, nr.Prop)
			}
		}
	}
	par := CheckManyParallel(n, props, opt, 2)
	for pi := range props {
		or, nr := off.Results[pi], par.Results[pi]
		if or.Kind != nr.Kind || or.Depth != nr.Depth {
			t.Errorf("prop %d [parallel]: %v vs %v with passes off", pi, nr, or)
		}
	}
}

// TestPassWitnessReplaysOnSource is the back-mapping contract stated
// directly: a SAT result found on the compiled netlist must replay on the
// source netlist under every pass combination, via the public Replay API
// (ValidateWitness already asserts this inside Check — here we re-check
// without it so a regression cannot hide behind the internal panic).
func TestPassWitnessReplaysOnSource(t *testing.T) {
	f := designs.NewImageFilter(designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 8})
	n := f.Netlist()
	for _, spec := range passSpecs {
		for _, prop := range []int{0, 7} {
			opt := Options{Engine: EngineBMC2, MaxDepth: 3*4 + 10}
			opt.Passes = spec
			r := Check(n, prop, opt)
			if r.Kind != KindCE {
				t.Fatalf("passes=%q prop=%d: expected CE, got %v", spec, prop, r)
			}
			if err := r.Witness.Replay(n, prop); err != nil {
				t.Errorf("passes=%q prop=%d: replay on source netlist failed: %v", spec, prop, err)
			}
			if r.Witness.FormatFrame(n, 0) == "" {
				t.Errorf("passes=%q prop=%d: FormatFrame empty on source netlist", spec, prop)
			}
			if r.Prop != prop {
				t.Errorf("passes=%q: result Prop=%d, want %d", spec, r.Prop, prop)
			}
		}
	}
}

// TestPassPBALatchReasonsResolveToSourceNames: after the pipeline drops
// the junk latches declared ahead of the relevant counter, the compiled
// latch indices shift — the tracker the caller sees must nevertheless
// index the SOURCE netlist's latch list, so every latch reason resolves to
// a counter bit by name.
func TestPassPBALatchReasonsResolveToSourceNames(t *testing.T) {
	m := rtl.NewModule("pba-backmap")
	junk := m.Register("junk", 8, 0)
	junk.SetNext(m.Inc(junk.Q)) // free-running, outside the property cone
	c := m.Register("cnt", 3, 0)
	wrap := m.EqConst(c.Q, 4)
	c.SetNext(m.MuxV(wrap, m.Const(3, 0), m.Inc(c.Q)))
	m.Done(junk, c)
	m.AssertAlways("ne6", m.EqConst(c.Q, 6).Not())

	for _, spec := range []string{"none", "coi", ""} {
		r := Check(m.N, 0, Options{MaxDepth: 5, pba: true, Passes: spec})
		if r.Kind != KindNoCE {
			t.Fatalf("passes=%q: expected NO_CE, got %v", spec, r)
		}
		if r.Tracker == nil || r.Tracker.Size() == 0 {
			t.Fatalf("passes=%q: no latch reasons collected", spec)
		}
		for i := range r.Tracker.LR {
			if i < 0 || i >= len(m.N.Latches) {
				t.Fatalf("passes=%q: latch reason %d out of source range", spec, i)
			}
			name := m.N.Latches[i].Name
			if !strings.HasPrefix(name, "cnt") {
				t.Errorf("passes=%q: latch reason %d resolves to %q, want a cnt bit", spec, i, name)
			}
		}
	}
}

// TestPBADisablesClauseSharing pins the PBA/strash coupling documented on
// Options.pba: while proof tracing is active, the engine must run with
// structural hashing, init folding and comparator memoization off,
// because all three share clauses across the tags PBA harvests relevance
// from. A plain run keeps them on.
func TestPBADisablesClauseSharing(t *testing.T) {
	l := designs.NewLookup(designs.LookupConfig{AW: 3, DW: 4, NumProps: 4, Latency: 3})
	n := l.Netlist()
	ctx := context.Background()

	pbaE := newEngine(ctx, n, l.InvariantIndex, Options{Engine: EngineBMC2, MaxDepth: 5, pba: true})
	if !pbaE.fu.NoStrash {
		t.Errorf("PBA run must disable strash in the unroller")
	}
	if pbaE.fu.FoldInits {
		t.Errorf("PBA run must disable init folding")
	}

	plainE := newEngine(ctx, n, l.InvariantIndex, Options{Engine: EngineBMC2, MaxDepth: 5})
	if plainE.fu.NoStrash {
		t.Errorf("plain run must keep strash on")
	}
	if !plainE.fu.FoldInits {
		t.Errorf("plain run must keep init folding on")
	}
}
