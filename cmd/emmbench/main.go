// Command emmbench runs the solver and CNF-generation micro-benchmarks
// (the same workloads as BenchmarkPropagate, BenchmarkUnrollStrash, and
// BenchmarkEMMDepthGrowth in bench_test.go) outside `go test` and records
// the results as JSON, seeding the repository's benchmark trajectory:
//
//	emmbench                      # writes BENCH_solver.json
//	emmbench -o results.json      # alternate output path
//	emmbench -benchtime 5         # minimum seconds per benchmark
//
// A benchmark longer than -benchtime runs once (testing.Benchmark stops at
// N=1), so such a row is run three times: ns_per_op is the median run and
// ns_min/ns_max bound the spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"emmver/internal/exp"
	"emmver/internal/pass"
	"emmver/internal/rtl"
	"emmver/internal/sat"
	"emmver/internal/unroll"
)

type entry struct {
	Name       string             `json:"name"`
	Iterations int                `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Runs       int                `json:"runs,omitempty"`
	NsMin      float64            `json:"ns_min,omitempty"`
	NsMax      float64            `json:"ns_max,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// singleSampleRuns is how often a row that testing.Benchmark measured
// with one iteration is run.
const singleSampleRuns = 3

type report struct {
	Date       string  `json:"date"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	Benchmarks []entry `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "BENCH_solver.json", "output file")
	benchSecs := flag.Float64("benchtime", 1, "minimum seconds per benchmark")
	flag.Parse()
	testing.Init()
	if err := flag.Set("test.benchtime", fmt.Sprintf("%gs", *benchSecs)); err != nil {
		fatal(err)
	}

	rep := report{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, b := range []struct {
		name string
		run  func() entry
	}{
		{"Propagate", benchPropagate},
		{"UnrollStrash/On", func() entry { return benchStrash(false) }},
		{"UnrollStrash/Off", func() entry { return benchStrash(true) }},
		{"EMMDepthGrowth/On", func() entry { return benchGrowth(false) }},
		{"EMMDepthGrowth/Off", func() entry { return benchGrowth(true) }},
		{"ReduceDBTiers", benchReduceDBTiers},
		{"GrowthSolve", benchGrowthSolve},
		{"CompilePipeline/Static", benchCompileStatic},
		{"CompilePipeline/Off", func() entry { return benchCompileSolve(pass.SpecNone) }},
		{"CompilePipeline/On", func() entry { return benchCompileSolve("") }},
	} {
		e := b.run()
		if e.Iterations == 1 {
			ns := []float64{e.NsPerOp}
			for len(ns) < singleSampleRuns {
				ns = append(ns, b.run().NsPerOp)
			}
			slices.Sort(ns)
			e.Runs, e.NsMin, e.NsPerOp, e.NsMax = len(ns), ns[0], ns[len(ns)/2], ns[len(ns)-1]
		}
		e.Name = b.name
		rep.Benchmarks = append(rep.Benchmarks, e)
		fmt.Printf("%-22s %12.0f ns/op  %v\n", e.Name, e.NsPerOp, e.Metrics)
		if e.Runs > 0 {
			fmt.Printf("%-22s %d runs: min %.0f, max %.0f ns/op\n", "", e.Runs, e.NsMin, e.NsMax)
		}
	}

	// The headline number: CNF reduction from strash + comparator
	// memoization on the shared-address growth design.
	var on, off float64
	for _, e := range rep.Benchmarks {
		switch e.Name {
		case "EMMDepthGrowth/On":
			on = e.Metrics["clauses"]
		case "EMMDepthGrowth/Off":
			off = e.Metrics["clauses"]
		}
	}
	if on > 0 && off > 0 {
		red := 100 * (1 - on/off)
		rep.Benchmarks = append(rep.Benchmarks, entry{
			Name:    "EMMDepthGrowth/Reduction",
			Metrics: map[string]float64{"reduction_pct": red},
		})
		fmt.Printf("CNF reduction at depth 24: %.1f%%\n", red)
	}

	// The PR-5 headline: CNF reduction from the static compile pipeline
	// (COI + constant sweep + port pruning + dedup) on the decoy-salted
	// growth design, solved to the same depth either way.
	var pOff, pOn float64
	for _, e := range rep.Benchmarks {
		switch e.Name {
		case "CompilePipeline/Off":
			pOff = e.Metrics["clauses"]
		case "CompilePipeline/On":
			pOn = e.Metrics["clauses"]
		}
	}
	if pOff > 0 && pOn > 0 {
		red := 100 * (1 - pOn/pOff)
		rep.Benchmarks = append(rep.Benchmarks, entry{
			Name:    "CompilePipeline/Reduction",
			Metrics: map[string]float64{"clause_reduction_pct": red},
		})
		fmt.Printf("pass-pipeline CNF reduction at depth 24: %.1f%%\n", red)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// benchPropagate: long implication chains of alternating binary and ternary
// clauses, solved under an assumption that forces the whole chain.
func benchPropagate() entry {
	const n = 20000
	s := sat.New()
	vars := make([]sat.Var, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i+2 < n; i++ {
		s.AddClause(sat.NegLit(vars[i]), sat.PosLit(vars[i+1]))
		s.AddClause(sat.NegLit(vars[i]), sat.NegLit(vars[i+1]), sat.PosLit(vars[i+2]))
	}
	var props, bins int64
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if s.Solve(sat.PosLit(vars[0])) != sat.Sat {
				b.Fatal("chain must be satisfiable")
			}
		}
		props = s.Stats().Propagations
		bins = s.Stats().BinPropagations
	})
	perOp := float64(r.NsPerOp())
	return entry{
		Iterations: r.N,
		NsPerOp:    perOp,
		Metrics: map[string]float64{
			"props/s":   float64(props) / r.T.Seconds(),
			"bin_props": float64(bins),
		},
	}
}

// benchStrash: ten rounds of all pairwise ANDs over 64 literals through the
// auxiliary gate builders.
func benchStrash(off bool) entry {
	const width, rounds = 64, 10
	m := rtl.NewModule("strash")
	bus := m.Input("x", width)
	m.Done()
	var clauses, hits int
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sat.New()
			u := unroll.New(m.N, s, unroll.Initialized)
			u.NoStrash = off
			xs := u.VecLits(bus, 0)
			tag := unroll.MkTag(unroll.TagAux, 0, 0)
			for round := 0; round < rounds; round++ {
				for i := 0; i < width; i++ {
					for j := i + 1; j < width; j++ {
						u.MkAndAux(xs[i], xs[j], tag)
					}
				}
			}
			clauses, hits = u.ClausesAdded, u.StrashHits
		}
	})
	return entry{
		Iterations: r.N,
		NsPerOp:    float64(r.NsPerOp()),
		Metrics: map[string]float64{
			"clauses":     float64(clauses),
			"strash_hits": float64(hits),
		},
	}
}

// benchGrowth: EMM constraint generation to depth 24 for the shared-address
// memory (AW=10, DW=32, one write, two reads).
func benchGrowth(noOpt bool) entry {
	cfg := exp.GrowthConfig{AW: 10, DW: 32, Writes: 1, Reads: 2, MaxK: 24, Step: 24,
		SharedAddr: true, NoOpt: noOpt}
	var last exp.GrowthPoint
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pts := exp.Growth(cfg)
			last = pts[len(pts)-1]
		}
	})
	return entry{
		Iterations: r.N,
		NsPerOp:    float64(r.NsPerOp()),
		Metrics: map[string]float64{
			"clauses":     float64(last.CNFClauses),
			"memo_hits":   float64(last.MemoHits),
			"strash_hits": float64(last.StrashHits),
		},
	}
}

// benchReduceDBTiers: a hard UNSAT pigeonhole instance, solved from scratch
// each iteration. The thousands of conflicts push learnts through the
// core/mid/local tiers and fire several reduceDB rounds, so the run prices
// the whole tier bookkeeping (LBD computation, promotion, demotion,
// activity-sorted deletion).
func benchReduceDBTiers() entry {
	const holes = 8
	var st sat.Stats
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sat.New()
			addPigeonhole(s, holes+1, holes)
			if s.Solve() != sat.Unsat {
				b.Fatal("pigeonhole must be UNSAT")
			}
			st = s.Stats()
		}
	})
	return entry{
		Iterations: r.N,
		NsPerOp:    float64(r.NsPerOp()),
		Metrics: map[string]float64{
			"conflicts": float64(st.Conflicts),
			"reducedbs": float64(st.ReduceDBs),
			"restarts":  float64(st.Restarts),
		},
	}
}

// addPigeonhole encodes PHP(p, h): p pigeons into h holes.
func addPigeonhole(s *sat.Solver, pigeons, holes int) {
	vars := make([][]sat.Var, pigeons)
	for p := range vars {
		vars[p] = make([]sat.Var, holes)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		clause := make([]sat.Lit, holes)
		for h := 0; h < holes; h++ {
			clause[h] = sat.PosLit(vars[p][h])
		}
		s.AddClause(clause...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(sat.NegLit(vars[p1][h]), sat.NegLit(vars[p2][h]))
			}
		}
	}
}

// benchGrowthSolve: the solve-based growth experiment (§S2) — BMC-2 on the
// shared-address read-consistency property to depth 24 with strash and
// comparator memoization off.
func benchGrowthSolve() entry {
	cfg := exp.DefaultGrowthSolve()
	var res exp.GrowthSolveResult
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res = exp.GrowthSolve(cfg)
		}
	})
	return entry{
		Iterations: r.N,
		NsPerOp:    float64(r.NsPerOp()),
		Metrics: map[string]float64{
			"conflicts": float64(res.Conflicts),
			"restarts":  float64(res.Stats.Restarts),
		},
	}
}

// benchCompileStatic times the four netlist passes alone on the
// decoy-salted §S3 growth design.
func benchCompileStatic() entry {
	cfg := exp.DefaultCompileAB()
	n := exp.GrowthSolveNetlist(cfg)
	var after pass.Counts
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := pass.Compile(n, []int{0}, pass.Options{})
			if err != nil {
				b.Fatal(err)
			}
			after = pass.CountsOf(c.N)
		}
	})
	before := pass.CountsOf(n)
	return entry{
		Iterations: r.N,
		NsPerOp:    float64(r.NsPerOp()),
		Metrics: map[string]float64{
			"nodes_removed":   float64(before.Nodes - after.Nodes),
			"latches_removed": float64(before.Latches - after.Latches),
			"ports_removed":   float64(before.MemPorts - after.MemPorts),
		},
	}
}

// benchCompileSolve runs the §S3 A/B half selected by spec: the
// decoy-salted growth design, BMC-2 to depth 24, with the compile
// pipeline off (spec "none") or on (spec "").
func benchCompileSolve(spec string) entry {
	cfg := exp.DefaultCompileAB()
	cfg.Passes = spec
	var res exp.GrowthSolveResult
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res = exp.GrowthSolve(cfg)
		}
	})
	return entry{
		Iterations: r.N,
		NsPerOp:    float64(r.NsPerOp()),
		Metrics: map[string]float64{
			"clauses":   float64(res.Stats.Clauses),
			"conflicts": float64(res.Conflicts),
		},
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
