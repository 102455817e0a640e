// Command emmbench runs the engine micro-benchmarks of internal/microbench
// (the bodies of BenchmarkPropagate, BenchmarkUnrollStrash,
// BenchmarkEMMDepthGrowth, BenchmarkReduceDBTiers, BenchmarkGrowthSolve
// and BenchmarkCompilePipeline in bench_test.go, at record sizes) outside
// `go test` and records the results as JSON, seeding the repository's
// benchmark trajectory:
//
//	emmbench                      # writes BENCH_solver.json
//	emmbench -o results.json      # alternate output path
//	emmbench -benchtime 5         # minimum seconds per benchmark
//
// Each row records the metrics its body reports, ns/op, allocs/op and
// B/op. A benchmark longer than -benchtime runs once (testing.Benchmark
// stops at N=1), so such a row is run three times: ns_per_op is the median
// run and ns_min/ns_max bound the spread. Two derived rows record the
// clause reductions of the EMMDepthGrowth and CompilePipeline pairs. A
// body that fails stops emmbench with exit status 1, naming its row, and
// no file is written.
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
	"emmver/internal/microbench"
	"emmver/internal/pass"
)

type entry struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	Runs        int                `json:"runs,omitempty"`
	NsMin       float64            `json:"ns_min,omitempty"`
	NsMax       float64            `json:"ns_max,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
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

type row struct {
	name string
	body func(*testing.B)
}

// rows are the measured rows, in output order.
var rows = []row{
	{"Propagate", microbench.Propagate},
	{"UnrollStrash/On", microbench.UnrollStrash(false)},
	{"UnrollStrash/Off", microbench.UnrollStrash(true)},
	{"EMMDepthGrowth/On", microbench.EMMDepthGrowth(false, nil)},
	{"EMMDepthGrowth/Off", microbench.EMMDepthGrowth(true, nil)},
	{"ReduceDBTiers", microbench.Pigeonhole(8)},
	{"GrowthSolve", microbench.GrowthSolve(exp.DefaultGrowthSolve())},
	{"CompilePipeline/Static", microbench.CompileStatic(exp.DefaultCompileAB())},
	{"CompilePipeline/Off", microbench.GrowthSolve(compileAB(pass.SpecNone))},
	{"CompilePipeline/On", microbench.GrowthSolve(compileAB(""))},
}

// reductions are the derived rows that follow them: metric key is
// 100 × (1 − on/off) over the clauses of the on and off rows. The first
// is the headline CNF reduction from strash and comparator memoization on
// the shared-address design, the second the reduction from the static
// compile pipeline (COI, constant sweep, port pruning, dedup) on the
// decoy-salted design, each solved to the same depth either way.
var reductions = []struct{ name, key, on, off string }{
	{"EMMDepthGrowth/Reduction", "reduction_pct", "EMMDepthGrowth/On", "EMMDepthGrowth/Off"},
	{"CompilePipeline/Reduction", "clause_reduction_pct", "CompilePipeline/On", "CompilePipeline/Off"},
}

// compileAB is the §S3 configuration with the compile-pipeline spec set.
func compileAB(passes string) exp.GrowthSolveConfig {
	cfg := exp.DefaultCompileAB()
	cfg.Passes = passes
	return cfg
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
	clauses := map[string]float64{}
	for _, r := range rows {
		e, err := measure(r)
		if err != nil {
			fatal(err)
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
		clauses[e.Name] = e.Metrics["clauses"]
		fmt.Printf("%-26s %12.0f ns/op %10d allocs/op  %v\n", e.Name, e.NsPerOp, e.AllocsPerOp, e.Metrics)
		if e.Runs > 0 {
			fmt.Printf("%-26s %d runs: min %.0f, max %.0f ns/op\n", "", e.Runs, e.NsMin, e.NsMax)
		}
	}
	for _, d := range reductions {
		if on, off := clauses[d.on], clauses[d.off]; on > 0 && off > 0 {
			red := 100 * (1 - on/off)
			rep.Benchmarks = append(rep.Benchmarks, entry{Name: d.name, Metrics: map[string]float64{d.key: red}})
			fmt.Printf("%-26s %.1f%%\n", d.name, red)
		}
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

// measure runs a row's body through testing.Benchmark, singleSampleRuns
// times when the first run has one iteration. testing.Benchmark discards a
// failing body's message and returns a zero result, so any run with no
// iterations fails the row.
func measure(r row) (entry, error) {
	var first testing.BenchmarkResult
	var ns []float64
	for len(ns) == 0 || first.N == 1 && len(ns) < singleSampleRuns {
		res := testing.Benchmark(r.body)
		if res.N == 0 {
			return entry{}, fmt.Errorf("%s: the benchmark failed; go test -bench runs the same body and shows why", r.name)
		}
		if len(ns) == 0 {
			first = res
		}
		ns = append(ns, float64(res.NsPerOp()))
	}
	e := entry{
		Name:        r.name,
		Iterations:  first.N,
		NsPerOp:     ns[0],
		AllocsPerOp: first.AllocsPerOp(),
		BytesPerOp:  first.AllocedBytesPerOp(),
		Metrics:     first.Extra,
	}
	if len(ns) > 1 {
		slices.Sort(ns)
		e.Runs, e.NsMin, e.NsPerOp, e.NsMax = len(ns), ns[0], ns[len(ns)/2], ns[len(ns)-1]
	}
	return e, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
