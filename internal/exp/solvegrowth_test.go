package exp

import (
	"testing"

	"emmver/internal/bmc"
)

// The shared-read-agree property is valid, so the run with strash and
// comparator memoization off (NoOpt, the §S2 shape) and the run with them
// on must both refute every depth, and on the same formula family.
func TestGrowthSolveEquivalence(t *testing.T) {
	cfg := GrowthSolveConfig{AW: 4, DW: 4, MaxK: 6, NoOpt: true}
	noOpt := GrowthSolve(cfg)
	cfg.NoOpt = false
	opt := GrowthSolve(cfg)

	for _, r := range []GrowthSolveResult{noOpt, opt} {
		if r.Kind != bmc.KindNoCE {
			t.Fatalf("expected NoCE on valid property, got %v (NoOpt=%v)", r.Kind, r.Config.NoOpt)
		}
		if len(r.Depths) != cfg.MaxK+1 {
			t.Fatalf("expected %d depth stats, got %d", cfg.MaxK+1, len(r.Depths))
		}
	}
	if opt.Stats.Clauses > noOpt.Stats.Clauses {
		t.Fatalf("strash and memo grew the formula: %d clauses vs %d with them off",
			opt.Stats.Clauses, noOpt.Stats.Clauses)
	}
}
