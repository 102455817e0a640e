package emmver

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), at the reduced scale so a full -bench=. run finishes in
// minutes. The paper-scale runs (AW=10/DW=32 arrays, 216 properties,
// 3-hour timeouts) are reproduced by cmd/emmtables -scale paper; measured
// numbers for both scales are recorded in EXPERIMENTS.md.
//
//	BenchmarkTable1/*            Table 1  (quicksort proofs, EMM vs Explicit)
//	BenchmarkTable2/*            Table 2  (quicksort P2 with PBA)
//	BenchmarkIndustryI           Industry I  (image filter, witnesses + proofs)
//	BenchmarkIndustryII          Industry II (lookup engine flow)
//	BenchmarkConstraintGrowth    Fig.-equivalent: EMM constraint counts vs depth
//
// Engine micro-benchmarks (solver, EMM generation, explicit expansion)
// quantify the substrate.

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"emmver/internal/bmc"
	"emmver/internal/designs"
	"emmver/internal/exp"
	"emmver/internal/expmem"
	"emmver/internal/pass"
	"emmver/internal/rtl"
	"emmver/internal/sat"
	"emmver/internal/serve"
	"emmver/internal/unroll"
	"emmver/internal/verilog"
)

// BenchmarkTable1 regenerates Table 1 rows: forward-induction proofs of
// P1/P2 on the quicksort machine, EMM (BMC-3) vs Explicit Modeling
// (BMC-1), per array size N.
func BenchmarkTable1(b *testing.B) {
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			cfg := exp.DefaultConfig(90 * time.Second)
			var rows []exp.T1Row
			for i := 0; i < b.N; i++ {
				rows = exp.Table1(cfg, []int{n})
			}
			for _, r := range rows {
				b.ReportMetric(float64(r.D), "D_"+r.Prop)
				b.ReportMetric(r.EMMSec, "emm_s_"+r.Prop)
				if !r.ExplTO {
					b.ReportMetric(r.ExplSec, "expl_s_"+r.Prop)
				}
			}
			b.Logf("\n%s", exp.RenderTable1(rows))
		})
	}
}

// BenchmarkTable2 regenerates Table 2: P2 through proof-based
// abstraction, reporting reduced model sizes and proof cost.
func BenchmarkTable2(b *testing.B) {
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			cfg := exp.DefaultConfig(90 * time.Second)
			var rows []exp.T2Row
			for i := 0; i < b.N; i++ {
				rows = exp.Table2(cfg, []int{n})
			}
			r := rows[0]
			b.ReportMetric(float64(r.EMMKeptFF), "kept_FF")
			b.ReportMetric(float64(r.EMMOrigFF), "orig_FF")
			b.ReportMetric(r.EMMSec, "emm_proof_s")
			b.Logf("\n%s", exp.RenderTable2(rows))
		})
	}
}

// BenchmarkIndustryI regenerates the Industry I narrative: the
// witness/proof split over the filter's reachability properties.
func BenchmarkIndustryI(b *testing.B) {
	cfg := exp.DefaultConfig(2 * time.Minute)
	var r *exp.I1Result
	for i := 0; i < b.N; i++ {
		r = exp.Industry1(cfg)
	}
	b.ReportMetric(float64(r.EMMWitnesses), "witnesses")
	b.ReportMetric(float64(r.EMMProofs), "proofs")
	b.ReportMetric(float64(r.EMMMaxDepth), "max_depth")
	b.ReportMetric(r.EMMSec, "emm_s")
	b.ReportMetric(r.ExplSec, "expl_s")
	b.Logf("\n%s", exp.RenderIndustry1(r))
}

// BenchmarkIndustryII regenerates the Industry II flow: spurious CEs
// under full abstraction, EMM search, the backward-induction invariant,
// the RD=0 abstraction proofs, and the BDD blowup.
func BenchmarkIndustryII(b *testing.B) {
	cfg := exp.DefaultConfig(2 * time.Minute)
	var r *exp.I2Result
	for i := 0; i < b.N; i++ {
		r = exp.Industry2(cfg)
	}
	b.ReportMetric(float64(r.SpuriousDepth), "spurious_depth")
	b.ReportMetric(float64(r.InvDepth), "invariant_depth")
	b.ReportMetric(float64(r.RDZeroProofs), "rd0_proofs")
	b.Logf("\n%s", exp.RenderIndustry2(r))
}

// BenchmarkConstraintGrowth regenerates the figure-equivalent: EMM
// constraint counts against the §3/§4.1 closed forms across depths, for
// the paper's single-port and Industry-II port configurations.
func BenchmarkConstraintGrowth(b *testing.B) {
	var pts []exp.GrowthPoint
	for i := 0; i < b.N; i++ {
		pts = exp.Growth(exp.GrowthConfig{AW: 10, DW: 32, Writes: 1, Reads: 1, MaxK: 60, Step: 10})
	}
	last := pts[len(pts)-1]
	b.ReportMetric(float64(last.Clauses), "clauses_at_60")
	b.ReportMetric(float64(last.Gates), "gates_at_60")
	b.Logf("\n%s", exp.RenderGrowth(pts))
}

// BenchmarkParallelSpeedup measures the property groups on the
// Industry I property set: the same CheckManyParallel run at 1/2/4/8
// workers, reporting each configuration's speedup over the 1-worker
// baseline as x_speedup. On a single-core host the sub-benchmarks time-share
// one CPU and x_speedup stays near 1; the metric shows real scaling only
// when GOMAXPROCS cores are available (see EXPERIMENTS.md).
func BenchmarkParallelSpeedup(b *testing.B) {
	f := designs.NewImageFilter(designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 16})
	opt := bmc.Options{Engine: bmc.EngineBMC3, MaxDepth: 3*4 + 10}
	var baseline float64
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs%d", jobs), func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				mr := bmc.CheckManyParallel(f.Netlist(), f.PropIndices(), opt, jobs)
				if c := mr.Counts(); c[bmc.KindTimeout] > 0 {
					b.Fatalf("unexpected timeouts: %v", c)
				}
			}
			perOp := time.Since(start).Seconds() / float64(b.N)
			if jobs == 1 {
				baseline = perOp
			}
			if baseline > 0 {
				b.ReportMetric(baseline/perOp, "x_speedup")
			}
		})
	}
}

// --- engine micro-benchmarks ---

// BenchmarkPropagate measures raw unit-propagation throughput through the
// arena-based clause store: long implication chains of alternating binary
// and ternary clauses, solved under an assumption that forces the whole
// chain. Reports propagations per second.
func BenchmarkPropagate(b *testing.B) {
	const n = 20000
	s := sat.New()
	vars := make([]sat.Var, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i+2 < n; i++ {
		// Binary link: v_i -> v_{i+1} (served by the implication lists).
		s.AddClause(sat.NegLit(vars[i]), sat.PosLit(vars[i+1]))
		// Ternary link: v_i ∧ v_{i+1} -> v_{i+2} (served by watch lists).
		s.AddClause(sat.NegLit(vars[i]), sat.NegLit(vars[i+1]), sat.PosLit(vars[i+2]))
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if s.Solve(sat.PosLit(vars[0])) != sat.Sat {
			b.Fatal("chain must be satisfiable")
		}
	}
	props := s.Stats().Propagations
	if sec := time.Since(start).Seconds(); sec > 0 {
		b.ReportMetric(float64(props)/sec, "props/s")
	}
	b.ReportMetric(float64(s.Stats().BinPropagations), "bin_props")
}

// BenchmarkUnrollStrash measures the structural-hashing cache on the
// auxiliary gate builders (the path EMM and the loop-free-path constraints
// go through): ten rounds of all pairwise ANDs over 64 literals. With
// hashing on, rounds two through ten are pure cache hits; off, every gate
// is re-encoded. Netlist nodes themselves are deduplicated by the per-frame
// value cache, so this — repeated client-built gates — is where strash
// earns its keep.
func BenchmarkUnrollStrash(b *testing.B) {
	const width, rounds = 64, 10
	m := rtl.NewModule("strash")
	bus := m.Input("x", width)
	m.Done()
	for _, variant := range []struct {
		name string
		off  bool
	}{{"On", false}, {"Off", true}} {
		b.Run(variant.name, func(b *testing.B) {
			var clauses, hits int
			for i := 0; i < b.N; i++ {
				s := sat.New()
				u := unroll.New(m.N, s, unroll.Initialized)
				u.NoStrash = variant.off
				xs := u.VecLits(bus, 0)
				tag := unroll.MkTag(unroll.TagAux, 0, 0)
				for r := 0; r < rounds; r++ {
					for i := 0; i < width; i++ {
						for j := i + 1; j < width; j++ {
							u.MkAndAux(xs[i], xs[j], tag)
						}
					}
				}
				clauses, hits = u.ClausesAdded, u.StrashHits
			}
			b.ReportMetric(float64(clauses), "clauses")
			b.ReportMetric(float64(hits), "strash_hits")
		})
	}
}

// BenchmarkEMMDepthGrowth measures EMM constraint generation to depth 24
// for the shared-address-bus memory (AW=10, DW=32, one write, two reads)
// with the optimizations on and off. The reduction_pct metric is the PR's
// acceptance number: >= 25% fewer CNF clauses at depth >= 20 (also pinned
// by exp.TestGrowthSharedAddrReduction).
func BenchmarkEMMDepthGrowth(b *testing.B) {
	cfg := exp.GrowthConfig{AW: 10, DW: 32, Writes: 1, Reads: 2, MaxK: 24, Step: 24, SharedAddr: true}
	var on, off exp.GrowthPoint
	b.Run("On", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pts := exp.Growth(cfg)
			on = pts[len(pts)-1]
		}
		b.ReportMetric(float64(on.CNFClauses), "clauses")
		b.ReportMetric(float64(on.MemoHits), "memo_hits")
	})
	b.Run("Off", func(b *testing.B) {
		c := cfg
		c.NoOpt = true
		for i := 0; i < b.N; i++ {
			pts := exp.Growth(c)
			off = pts[len(pts)-1]
		}
		b.ReportMetric(float64(off.CNFClauses), "clauses")
	})
	if on.CNFClauses > 0 && off.CNFClauses > 0 {
		red := 100 * (1 - float64(on.CNFClauses)/float64(off.CNFClauses))
		b.ReportMetric(red, "reduction_pct")
		if red < 25 {
			b.Fatalf("CNF reduction %.1f%% below the required 25%%", red)
		}
	}
}

// BenchmarkSATSolverPigeonhole measures raw CDCL throughput on a hard
// structured UNSAT family.
func BenchmarkSATSolverPigeonhole(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sat.New()
		holes := 8
		vars := make([][]sat.Var, holes+1)
		for p := range vars {
			vars[p] = make([]sat.Var, holes)
			for h := range vars[p] {
				vars[p][h] = s.NewVar()
			}
		}
		for p := 0; p <= holes; p++ {
			cl := make([]sat.Lit, holes)
			for h := 0; h < holes; h++ {
				cl[h] = sat.PosLit(vars[p][h])
			}
			s.AddClause(cl...)
		}
		for h := 0; h < holes; h++ {
			for p1 := 0; p1 <= holes; p1++ {
				for p2 := p1 + 1; p2 <= holes; p2++ {
					s.AddClause(sat.NegLit(vars[p1][h]), sat.NegLit(vars[p2][h]))
				}
			}
		}
		if s.Solve() != sat.Unsat {
			b.Fatal("PHP must be UNSAT")
		}
	}
}

// BenchmarkEMMGeneration measures the cost of emitting EMM constraints to
// depth 60 for the paper's AW=10/DW=32 memory.
func BenchmarkEMMGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Growth(exp.GrowthConfig{AW: 10, DW: 32, Writes: 1, Reads: 1, MaxK: 60, Step: 60})
	}
}

// BenchmarkExplicitExpansion measures expanding the paper-scale quicksort
// memories (2×2^10 words) into latches.
func BenchmarkExplicitExpansion(b *testing.B) {
	q := designs.NewQuickSort(designs.QuickSortConfig{N: 4, ArrayAW: 8, DataW: 16, StackAW: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := expmem.Expand(q.Netlist()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerilogQuicksort measures the full HDL pipeline: parse and
// elaborate the Verilog quicksort, then prove P1 with EMM.
func BenchmarkVerilogQuicksort(b *testing.B) {
	src, err := os.ReadFile("internal/verilog/testdata/quicksort.v")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		file, err := verilog.Parse(string(src))
		if err != nil {
			b.Fatal(err)
		}
		n, err := verilog.ElaborateWithParams(file, "quicksort",
			map[string]uint64{"N": 3, "AW": 2, "DW": 3, "SW": 2})
		if err != nil {
			b.Fatal(err)
		}
		if r := bmc.Check(n, 0, bmc.Options{Engine: bmc.EngineBMC3, MaxDepth: 120}); r.Kind != bmc.KindProof {
			b.Fatalf("expected proof, got %v", r)
		}
	}
}

// BenchmarkAblationPBAvsCEGAR contrasts the paper's proof-based
// abstraction (§2.2/§4.3) with the refinement-based flow its introduction
// argues against ([6–8]): both prove quicksort's P2, and the metrics show
// the final model sizes and iteration counts of each.
func BenchmarkAblationPBAvsCEGAR(b *testing.B) {
	cfg := designs.QuickSortConfig{N: 3, ArrayAW: 3, DataW: 4, StackAW: 3}
	b.Run("PBA", func(b *testing.B) {
		var kept int
		for i := 0; i < b.N; i++ {
			q := designs.NewQuickSort(cfg)
			res := bmc.ProveWithPBA(q.Netlist(), q.P2Index,
				bmc.Options{Engine: bmc.EngineBMC3, MaxDepth: 200, StabilityDepth: 10})
			if res.Kind() != bmc.KindProof {
				b.Fatalf("PBA failed: %v", res.Kind())
			}
			kept = res.Abs.KeptLatches
		}
		b.ReportMetric(float64(kept), "kept_FF")
	})
	b.Run("CEGAR", func(b *testing.B) {
		var kept, rounds int
		for i := 0; i < b.N; i++ {
			q := designs.NewQuickSort(cfg)
			res := bmc.CEGAR(q.Netlist(), q.P2Index,
				bmc.Options{Engine: bmc.EngineBMC3, MaxDepth: 200}, 12)
			if res.Final.Kind != bmc.KindProof {
				b.Fatalf("CEGAR failed: %v", res.Final)
			}
			kept, rounds = res.KeptLatches, res.Rounds
		}
		b.ReportMetric(float64(kept), "kept_FF")
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkAblationExclusivity measures the paper's §3 claim that the
// exclusive valid-read chains (eq. 4) "improve the SAT solve time
// significantly" over the direct eq. 1 translation: the same quicksort P1
// proof runs with both encodings.
func BenchmarkAblationExclusivity(b *testing.B) {
	cfg := designs.QuickSortConfig{N: 3, ArrayAW: 3, DataW: 4, StackAW: 3}
	for _, variant := range []struct {
		name    string
		disable bool
	}{{"Chains", false}, {"Direct", true}} {
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := designs.NewQuickSort(cfg)
				opt := bmc.Options{Engine: bmc.EngineBMC3, MaxDepth: 200,
					DisableExclusivity: variant.disable}
				if r := bmc.Check(q.Netlist(), q.P1Index, opt); r.Kind != bmc.KindProof {
					b.Fatalf("expected proof, got %v", r)
				}
			}
		})
	}
}

// BenchmarkEMMFalsification measures bug hunting (BMC-2) on the buggy
// quicksort.
func BenchmarkEMMFalsification(b *testing.B) {
	cfg := designs.QuickSortConfig{N: 3, ArrayAW: 3, DataW: 4, StackAW: 3, Buggy: true}
	for i := 0; i < b.N; i++ {
		q := designs.NewQuickSort(cfg)
		r := bmc.Check(q.Netlist(), q.P1Index, bmc.Options{Engine: bmc.EngineBMC2, MaxDepth: 80})
		if r.Kind != bmc.KindCE {
			b.Fatalf("expected CE, got %v", r)
		}
	}
}

// BenchmarkObsOverhead quantifies the observability tax on a full BMC-3
// proof run. The "off" case is the default (Options.Obs nil: every obs
// call site is a nil-receiver no-op); "metrics" attaches a registry but no
// trace sink — the configuration the <2% overhead requirement is about,
// since counters are published as deltas at solve-call/depth granularity
// rather than per solver operation; "traced" adds a JSONL journal to
// an in-memory buffer for comparison.
func BenchmarkObsOverhead(b *testing.B) {
	cfg := designs.QuickSortConfig{N: 3, ArrayAW: 4, DataW: 8, StackAW: 4}
	base := bmc.Options{Engine: bmc.EngineBMC3, MaxDepth: 200}
	run := func(name string, mkOpt func() bmc.Options) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := designs.NewQuickSort(cfg)
				r := bmc.Check(q.Netlist(), q.P1Index, mkOpt())
				if r.Kind != bmc.KindProof {
					b.Fatalf("expected proof, got %v", r)
				}
			}
		})
	}
	run("off", func() bmc.Options { return base })
	run("metrics", func() bmc.Options { return Observe(base, nil) })
	run("traced", func() bmc.Options {
		return Observe(base, NewJSONLTrace(&bytes.Buffer{}))
	})
}

// BenchmarkReduceDBTiers prices the three-tier learnt-clause bookkeeping
// (LBD computation, promotion/demotion, activity-sorted local deletion) on
// a conflict-heavy UNSAT pigeonhole solve. Mirrored in cmd/emmbench.
func BenchmarkReduceDBTiers(b *testing.B) {
	const holes = 7
	for i := 0; i < b.N; i++ {
		s := sat.New()
		vars := make([][]sat.Var, holes+1)
		for p := range vars {
			vars[p] = make([]sat.Var, holes)
			for h := range vars[p] {
				vars[p][h] = s.NewVar()
			}
		}
		for p := 0; p <= holes; p++ {
			cl := make([]sat.Lit, holes)
			for h := 0; h < holes; h++ {
				cl[h] = sat.PosLit(vars[p][h])
			}
			s.AddClause(cl...)
		}
		for h := 0; h < holes; h++ {
			for p1 := 0; p1 <= holes; p1++ {
				for p2 := p1 + 1; p2 <= holes; p2++ {
					s.AddClause(sat.NegLit(vars[p1][h]), sat.NegLit(vars[p2][h]))
				}
			}
		}
		if s.Solve() != sat.Unsat {
			b.Fatal("PHP must be UNSAT")
		}
	}
}

// BenchmarkGrowthSolve runs the solve-based growth experiment (§S2) at a
// CI-sized configuration: the shared-address read-consistency property,
// BMC-2 to depth 12 with strash and memoization off. The full-depth run
// lives in cmd/emmbench.
func BenchmarkGrowthSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := exp.GrowthSolveConfig{AW: 5, DW: 8, MaxK: 12, NoOpt: true}
		if r := exp.GrowthSolve(cfg); r.Kind != bmc.KindNoCE {
			b.Fatalf("valid property must report NO_CE, got %v", r.Kind)
		}
	}
}

// BenchmarkCompilePipeline prices the static compile pipeline and records
// its effect on the decoy-salted growth design: /static times the four
// netlist passes alone; /solve-off and /solve-on run the depth-12 BMC-2
// check with the pipeline disabled and enabled, reporting cumulative CNF
// clauses so the benchmark trajectory captures the reduction. /hit is the
// job server's cache-hit path on internal/serve/testdata/gated.v, a
// 16-stage multiply chain behind a constant register: parse, compile and
// key the compiled netlist.
func BenchmarkCompilePipeline(b *testing.B) {
	cfg := exp.GrowthSolveConfig{AW: 5, DW: 8, MaxK: 12, NoOpt: true, Decoys: 8}
	b.Run("hit", func(b *testing.B) {
		src, err := os.ReadFile("internal/serve/testdata/gated.v")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n, err := serve.ParseNetlist("verilog", src, "", nil)
			if err != nil {
				b.Fatal(err)
			}
			c, err := pass.Compile(n, []int{0}, pass.Options{})
			if err != nil {
				b.Fatal(err)
			}
			serve.NetlistKey(c.N, c.Props)
		}
	})
	b.Run("static", func(b *testing.B) {
		b.ReportAllocs()
		n := exp.GrowthSolveNetlist(cfg)
		var after pass.Counts
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := pass.Compile(n, []int{0}, pass.Options{})
			if err != nil {
				b.Fatal(err)
			}
			after = pass.CountsOf(c.N)
		}
		before := pass.CountsOf(n)
		b.ReportMetric(float64(before.Nodes-after.Nodes), "nodes_removed")
		b.ReportMetric(float64(before.Latches-after.Latches), "latches_removed")
		b.ReportMetric(float64(before.MemPorts-after.MemPorts), "ports_removed")
	})
	solve := func(name, spec string) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var clauses int
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Passes = spec
				r := exp.GrowthSolve(c)
				if r.Kind != bmc.KindNoCE {
					b.Fatalf("valid property must report NO_CE, got %v", r.Kind)
				}
				clauses = r.Stats.Clauses
			}
			b.ReportMetric(float64(clauses), "clauses")
		})
	}
	solve("solve-off", pass.SpecNone)
	solve("solve-on", "")
}
