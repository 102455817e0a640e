// Package microbench holds the bodies of the engine micro-benchmarks. The
// Benchmark* functions of bench_test.go run them under `go test -bench` at
// CI sizes, and cmd/emmbench runs them through testing.Benchmark at record
// sizes, so a BENCH_solver.json row and the benchmark of the same name
// measure the same code.
//
// Every body reports its counts through b.ReportMetric, per operation: a
// count taken from the last iteration, or a total divided by b.N. A body
// called again by testing.Benchmark's calibration starts from scratch.
package microbench

import (
	"testing"

	"emmver/internal/bmc"
	"emmver/internal/exp"
	"emmver/internal/pass"
	"emmver/internal/rtl"
	"emmver/internal/sat"
	"emmver/internal/unroll"
)

// Propagate measures raw unit-propagation throughput through the
// arena-based clause store: a 20,000-variable implication chain of
// alternating binary and ternary clauses, solved under an assumption that
// forces the whole chain. It reports props/s, the propagations of this
// call's solves over its elapsed time, and bin_props, the propagations one
// solve serves from the binary implication lists.
func Propagate(b *testing.B) {
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
	before := s.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Solve(sat.PosLit(vars[0])) != sat.Sat {
			b.Fatal("chain must be satisfiable")
		}
	}
	after := s.Stats()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(after.Propagations-before.Propagations)/sec, "props/s")
	}
	b.ReportMetric(float64(after.BinPropagations-before.BinPropagations)/float64(b.N), "bin_props")
}

// UnrollStrash measures the structural-hashing cache on the auxiliary gate
// builders (the path EMM and the loop-free-path constraints go through):
// ten rounds of all pairwise ANDs over 64 literals. With hashing on, rounds
// two through ten are pure cache hits; off, every gate is re-encoded.
// Netlist nodes themselves are deduplicated by the per-frame value cache,
// so this — repeated client-built gates — is where strash earns its keep.
func UnrollStrash(off bool) func(*testing.B) {
	return func(b *testing.B) {
		const width, rounds = 64, 10
		m := rtl.NewModule("strash")
		bus := m.Input("x", width)
		m.Done()
		b.ReportAllocs()
		b.ResetTimer()
		var clauses, hits int
		for i := 0; i < b.N; i++ {
			u := unroll.New(m.N, sat.New(), unroll.Initialized)
			u.NoStrash = off
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
	}
}

// EMMDepthGrowth measures EMM constraint generation to depth 24 for the
// shared-address-bus memory (AW=10, DW=32, one write, two reads), with
// strash and comparator memoization on, or off when noOpt is set. When
// last is not nil it receives the depth-24 point, so a caller can compare
// the two halves.
func EMMDepthGrowth(noOpt bool, last *exp.GrowthPoint) func(*testing.B) {
	return func(b *testing.B) {
		cfg := exp.GrowthConfig{AW: 10, DW: 32, Writes: 1, Reads: 2, MaxK: 24, Step: 24,
			SharedAddr: true, NoOpt: noOpt}
		b.ReportAllocs()
		var p exp.GrowthPoint
		for i := 0; i < b.N; i++ {
			pts := exp.Growth(cfg)
			p = pts[len(pts)-1]
		}
		b.ReportMetric(float64(p.CNFClauses), "clauses")
		b.ReportMetric(float64(p.MemoHits), "memo_hits")
		b.ReportMetric(float64(p.StrashHits), "strash_hits")
		if last != nil {
			*last = p
		}
	}
}

// Pigeonhole solves the UNSAT pigeonhole instance PHP(holes+1, holes) from
// scratch each iteration. Its thousands of conflicts push learnts through
// the core/mid/local tiers and fire several reduceDB rounds, so the run
// prices raw CDCL throughput together with the tier bookkeeping (LBD
// computation, promotion, demotion, activity-sorted deletion).
func Pigeonhole(holes int) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		var st sat.Stats
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
				b.Fatal("pigeonhole must be UNSAT")
			}
			st = s.Stats()
		}
		b.ReportMetric(float64(st.Conflicts), "conflicts")
		b.ReportMetric(float64(st.ReduceDBs), "reducedbs")
		b.ReportMetric(float64(st.Restarts), "restarts")
	}
}

// GrowthSolve runs the solve-based growth experiment (§S2): BMC-2 on the
// shared-address read-consistency property, every depth UNSAT. With
// cfg.Decoys and cfg.Passes it is one half of the §S3 compile-pipeline
// A/B. It reports the run's cumulative CNF clauses, conflicts and restarts.
func GrowthSolve(cfg exp.GrowthSolveConfig) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		var r exp.GrowthSolveResult
		for i := 0; i < b.N; i++ {
			r = exp.GrowthSolve(cfg)
			if r.Kind != bmc.KindNoCE {
				b.Fatalf("valid property must report NO_CE, got %v", r.Kind)
			}
		}
		b.ReportMetric(float64(r.Stats.Clauses), "clauses")
		b.ReportMetric(float64(r.Conflicts), "conflicts")
		b.ReportMetric(float64(r.Stats.Restarts), "restarts")
	}
}

// CompileStatic times the four netlist passes alone on the decoy-salted
// growth design of cfg and reports what they remove.
func CompileStatic(cfg exp.GrowthSolveConfig) func(*testing.B) {
	return func(b *testing.B) {
		n := exp.GrowthSolveNetlist(cfg)
		b.ReportAllocs()
		b.ResetTimer()
		var after pass.Counts
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
	}
}
