package exp

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// LazyABResult is the §S7 artifact: the shared-address growth design
// verified to MaxK with eager and demand-driven EMM instantiation, several
// runs per side, compared by median wall-clock and by the EMM clause count
// each side actually emitted. The property is valid (every depth UNSAT),
// which is the lazy encoding's best case AND its riskiest: UNSAT of the
// relaxation must already be UNSAT of the full semantics, so the verdict
// cross-check below is the soundness regression, not a formality.
type LazyABResult struct {
	Config GrowthSolveConfig
	Runs   int
	// Off (eager) and On (lazy) hold the per-run results, in run order.
	Off, On []GrowthSolveResult
	// OffMedian and OnMedian are the median wall-clock times per side.
	OffMedian, OnMedian time.Duration
	// Speedup is OffMedian / OnMedian.
	Speedup float64
	// OffEMM and OnEMM are the cumulative EMM clause counts (read-data +
	// address-comparator + init) of one run per side; the encodings are
	// deterministic per side, so one run is representative.
	OffEMM, OnEMM int
	// Reduction is the fraction of eager EMM clauses the lazy run avoided.
	Reduction float64
	// Rounds, Spurious, Axioms summarize the lazy side's refinement work:
	// oracle validations, rejected models, and instantiated axiom levels.
	Rounds, Spurious int64
	Axioms           int
}

// DefaultLazyAB is the §S7 configuration: the §S2 shared-address solve
// shape at depth 24, eager vs lazy.
func DefaultLazyAB() GrowthSolveConfig {
	return DefaultGrowthSolve()
}

// LazyAB runs the lazy-EMM A/B experiment: runs verifications of cfg with
// eager instantiation, runs with demand-driven instantiation, everything
// else identical. It fails if any run's verdict disagrees with the others
// — laziness must never change what is proved.
func LazyAB(cfg GrowthSolveConfig, runs int) (LazyABResult, error) {
	if runs < 1 {
		runs = 1
	}
	res := LazyABResult{Config: cfg, Runs: runs}
	off := cfg
	off.Lazy = false
	on := cfg
	on.Lazy = true
	for i := 0; i < runs; i++ {
		res.Off = append(res.Off, GrowthSolve(off))
		res.On = append(res.On, GrowthSolve(on))
	}
	want := res.Off[0].Kind
	for i := 0; i < runs; i++ {
		if res.Off[i].Kind != want || res.On[i].Kind != want {
			return res, fmt.Errorf("exp: lazy A/B verdicts diverge: run %d eager=%s lazy=%s want=%s",
				i, res.Off[i].Kind, res.On[i].Kind, want)
		}
	}
	res.OffMedian = medianElapsed(res.Off)
	res.OnMedian = medianElapsed(res.On)
	if res.OnMedian > 0 {
		res.Speedup = float64(res.OffMedian) / float64(res.OnMedian)
	}
	res.OffEMM = res.Off[0].Stats.EMM.Clauses() + res.Off[0].Stats.EMM.InitClauses
	res.OnEMM = res.On[0].Stats.EMM.Clauses() + res.On[0].Stats.EMM.InitClauses
	if res.OffEMM > 0 {
		res.Reduction = 1 - float64(res.OnEMM)/float64(res.OffEMM)
	}
	res.Rounds = res.On[0].Stats.LazyRounds
	res.Spurious = res.On[0].Stats.LazySpurious
	res.Axioms = res.On[0].Stats.EMM.LazyAxioms
	return res, nil
}

func medianElapsed(rs []GrowthSolveResult) time.Duration {
	ds := make([]time.Duration, len(rs))
	for i, r := range rs {
		ds[i] = r.Elapsed
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// RenderLazyAB prints the §S7 table: per-run wall-clock and conflicts for
// both sides, the EMM clause counts, and the refinement-loop effort.
func RenderLazyAB(r LazyABResult) string {
	var b strings.Builder
	cfg := r.Config
	fmt.Fprintf(&b, "lazy EMM A/B (shared-address, AW=%d DW=%d, depth %d, %d runs/side)\n",
		cfg.AW, cfg.DW, cfg.MaxK, r.Runs)
	fmt.Fprintf(&b, "| run | time (eager) | time (lazy) | conflicts (eager) | conflicts (lazy) |\n")
	fmt.Fprintf(&b, "|-----|-------------:|------------:|------------------:|-----------------:|\n")
	for i := 0; i < r.Runs; i++ {
		fmt.Fprintf(&b, "| %d | %s | %s | %d | %d |\n", i+1,
			r.Off[i].Elapsed.Round(time.Millisecond), r.On[i].Elapsed.Round(time.Millisecond),
			r.Off[i].Conflicts, r.On[i].Conflicts)
	}
	fmt.Fprintf(&b, "EMM clauses: %d eager vs %d lazy — %.1f%% avoided (%d axiom levels over %d rounds, %d spurious)\n",
		r.OffEMM, r.OnEMM, 100*r.Reduction, r.Axioms, r.Rounds, r.Spurious)
	fmt.Fprintf(&b, "median: %s eager vs %s lazy — %.2fx speedup (verdict %s on every run)\n",
		r.OffMedian.Round(time.Millisecond), r.OnMedian.Round(time.Millisecond),
		r.Speedup, r.Off[0].Kind)
	return b.String()
}
