package exp

import (
	"testing"

	"emmver/internal/bmc"
)

// The §S7 acceptance bar on the full growth configuration: BMC-2 runs the
// EMM constraints lazily, and at depth 24 it must avoid at least 40% of
// the EMM clauses (eq. 6 included) the eager generator emits for the same
// shape, while reporting the property valid.
func TestLazyGrowthClauseReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full-depth growth run")
	}
	cfg := DefaultGrowthSolve()
	r := GrowthSolve(cfg)
	if r.Kind != bmc.KindNoCE {
		t.Fatalf("growth property must hold, got %v", r.Kind)
	}
	pts := Growth(GrowthConfig{AW: cfg.AW, DW: cfg.DW, Writes: 1, Reads: 2,
		MaxK: cfg.MaxK, Step: cfg.MaxK, SharedAddr: true, NoOpt: cfg.NoOpt})
	eager := pts[len(pts)-1].Clauses + pts[len(pts)-1].InitClauses
	lazy := r.Stats.EMM.Clauses() + r.Stats.EMM.InitClauses
	if red := 1 - float64(lazy)/float64(eager); red < 0.40 {
		t.Fatalf("lazy EMM clause reduction %.1f%% below the 40%% bar (%d eager vs %d lazy)",
			100*red, eager, lazy)
	}
}
