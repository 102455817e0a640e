package bmc

import (
	"context"
	"slices"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/sat"
)

// TestBackwardPhaseSeedGuard pins when alignBackwardPhases moves the
// backward solver's saved phases one frame later: only when they hold the
// SAT model of the same property one depth earlier and the window ends at
// the queried depth. On the mod-8 counter of manyCounter, property k says
// "cnt != k"; k = 5 and 3 fail backward at every small depth, while 8 is
// unreachable in one step (7 wraps to 0), so its depth-1 query is UNSAT.
func TestBackwardPhaseSeedGuard(t *testing.T) {
	m, _ := manyCounter()
	const a, b, unreachable = 5, 3, 8
	newE := func() *engine {
		return newEngine(context.Background(), m.N, a, Options{Engine: EngineBMC1, MaxDepth: 8})
	}
	step := func(e *engine, prop, i int, want sat.Status) {
		t.Helper()
		for e.bu.Frames() <= i {
			e.prepareDepth(e.bu.Frames())
		}
		if got := e.backwardCheck(prop, i); got != want {
			t.Fatalf("backward check prop %d depth %d: %v, want %v", prop, i, got, want)
		}
	}
	phases := func(e *engine) []bool {
		out := make([]bool, e.bs.NumVars())
		for v := range out {
			out[v] = e.bs.Phase(sat.Var(v))
		}
		return out
	}
	// untouched runs setup, extends the window to frames 0..last, and
	// asserts that the depth-2 query of a leaves every phase as it was.
	untouched := func(name string, last int, setup func(e *engine)) {
		t.Run(name, func(t *testing.T) {
			e := newE()
			setup(e)
			for e.bu.Frames() <= last {
				e.prepareDepth(e.bu.Frames())
			}
			e.bu.PropertyLit(a, 2)
			before := phases(e)
			e.alignBackwardPhases(a, 2)
			if !slices.Equal(before, phases(e)) {
				t.Fatalf("phases shifted")
			}
		})
	}

	t.Run("aligned", func(t *testing.T) {
		e := newE()
		step(e, a, 0, sat.Sat)
		step(e, a, 1, sat.Sat)
		e.prepareDepth(2)
		e.bu.PropertyLit(a, 2)
		latch := func(j, f int) sat.Lit { return e.bu.Lit(aig.MkLit(m.N.Latches[j].Node, false), f) }
		val := func(l sat.Lit) bool { return e.bs.Phase(l.Var()) != l.Sign() }
		var prev []bool
		for j := range m.N.Latches {
			prev = append(prev, val(latch(j, 1)))
		}
		e.alignBackwardPhases(a, 2)
		for j := range m.N.Latches {
			if got := val(latch(j, 2)); got != prev[j] {
				t.Errorf("latch %d frame 2: %v, want frame 1's %v", j, got, prev[j])
			}
		}
	})
	untouched("other property", 2, func(e *engine) {
		step(e, a, 1, sat.Sat)
		step(e, b, 1, sat.Sat)
	})
	untouched("other depth", 2, func(e *engine) {
		step(e, a, 0, sat.Sat)
	})
	untouched("last answer unsat", 2, func(e *engine) {
		step(e, a, 1, sat.Sat)
		step(e, unreachable, 1, sat.Unsat)
	})
	untouched("last answer unknown", 2, func(e *engine) {
		step(e, a, 1, sat.Sat)
		// The interrupt is polled on a stride of search iterations, so
		// repeat the query until one poll lands inside it.
		e.bs.Interrupt = func() bool { return true }
		for n := 0; e.backwardCheck(a, 1) != sat.Unknown; n++ {
			if n == 1000 {
				t.Fatalf("interrupt never fired")
			}
		}
		e.bs.Interrupt = nil
	})
	untouched("window beyond depth", 3, func(e *engine) {
		step(e, a, 1, sat.Sat)
	})
}
