package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"emmver/internal/bmc"
	"emmver/internal/sharenet"
)

// DistABResult is the §S5 artifact: the shared-address growth design
// verified to MaxK by a cross-process-shaped fleet — independent worker
// engines joined only by a broker on a real unix socket — with the clause
// uplink off and on, plus a one-process sequential reference. All three
// sides check the same theorem, so every verdict must agree; the Off/On
// medians isolate what cross-process lemma exchange buys on top of cube
// brokering alone.
type DistABResult struct {
	Config  GrowthSolveConfig
	Workers int
	Runs    int
	// Seq is the one-process reference; Off and On are the fleet runs
	// without and with clause sharing, in run order.
	Seq, Off, On []GrowthSolveResult
	// Medians of the per-side wall-clock times.
	SeqMedian, OffMedian, OnMedian time.Duration
	// Speedup is OffMedian / OnMedian — the sharing gain at fixed fleet.
	Speedup float64
}

// DefaultDistAB is the §S5 configuration: the §S2 shared-address solve
// shape at depth 24, the same workload the in-process §S4 A/B uses.
func DefaultDistAB() GrowthSolveConfig {
	return DefaultGrowthSolve()
}

// DistAB runs the distributed-solving A/B experiment: runs sequential
// references, runs socket fleets with sharing off, runs with sharing on.
// It fails if any run's verdict diverges — brokering and the clause uplink
// must never change what is proved.
func DistAB(cfg GrowthSolveConfig, workers, runs int) (DistABResult, error) {
	if workers < 2 {
		workers = 2
	}
	if runs < 1 {
		runs = 1
	}
	res := DistABResult{Config: cfg, Workers: workers, Runs: runs}
	seq := cfg
	seq.Jobs, seq.Cube, seq.Share = 0, false, false
	for i := 0; i < runs; i++ {
		res.Seq = append(res.Seq, GrowthSolve(seq))
		off, err := distGrowthRun(cfg, workers, false)
		if err != nil {
			return res, err
		}
		res.Off = append(res.Off, off)
		on, err := distGrowthRun(cfg, workers, true)
		if err != nil {
			return res, err
		}
		res.On = append(res.On, on)
	}
	want := res.Seq[0].Kind
	for i := 0; i < runs; i++ {
		if res.Seq[i].Kind != want || res.Off[i].Kind != want || res.On[i].Kind != want {
			return res, fmt.Errorf("exp: dist A/B verdicts diverge: run %d seq=%s off=%s on=%s",
				i, res.Seq[i].Kind, res.Off[i].Kind, res.On[i].Kind)
		}
	}
	res.SeqMedian = medianElapsed(res.Seq)
	res.OffMedian = medianElapsed(res.Off)
	res.OnMedian = medianElapsed(res.On)
	if res.OnMedian > 0 {
		res.Speedup = float64(res.OffMedian) / float64(res.OnMedian)
	}
	return res, nil
}

// distGrowthRun verifies the growth design once with a broker plus workers
// independent CheckDist engines over a unix socket, and aggregates the
// fleet into one GrowthSolveResult (stats summed, wall-clock of the whole
// fleet, the verdict every worker agreed on).
func distGrowthRun(cfg GrowthSolveConfig, workers int, share bool) (GrowthSolveResult, error) {
	out := GrowthSolveResult{Config: cfg}
	n := GrowthSolveNetlist(cfg)
	opt := bmc.BMC2(cfg.MaxK)
	opt.Restart = cfg.Restart
	opt.NoSimplify = cfg.NoSimplify
	opt.Timeout = cfg.Timeout
	opt.Share = share
	opt.DisableStrash = cfg.NoOpt
	opt.DisableEMMMemo = cfg.NoOpt
	opt.Passes = cfg.Passes

	dir, err := os.MkdirTemp("", "emmdist")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "fleet.sock")
	br, err := sharenet.Listen("unix", sock, sharenet.BrokerOptions{Workers: workers})
	if err != nil {
		return out, err
	}
	defer br.Close()

	t0 := time.Now()
	results := make([]*bmc.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			maxDepth, proofs := bmc.DistWorkerHello(opt)
			cl, err := sharenet.Dial("unix", sock, sharenet.ClientOptions{MaxDepth: maxDepth, Proofs: proofs})
			if err != nil {
				errs[w] = err
				return
			}
			defer cl.Close()
			results[w], errs[w] = bmc.CheckDist(n, 0, opt, cl)
		}(w)
	}
	wg.Wait()
	out.Elapsed = time.Since(t0)
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return out, fmt.Errorf("exp: dist worker %d: %w", w, errs[w])
		}
		if results[w].Kind != results[0].Kind {
			return out, fmt.Errorf("exp: dist workers disagree: %s vs %s", results[0].Kind, results[w].Kind)
		}
		out.Stats.Add(results[w].Stats)
	}
	out.Kind = results[0].Kind
	out.Conflicts = out.Stats.Conflicts
	return out, nil
}

// RenderDistAB prints the §S5 table: per-run wall-clock for the sequential
// reference and both fleet sides, the sharing runs' import traffic, and the
// median sharing speedup.
func RenderDistAB(r DistABResult) string {
	var b strings.Builder
	cfg := r.Config
	fmt.Fprintf(&b, "distributed solving A/B (shared-address, AW=%d DW=%d, depth %d, %d socket workers, %d runs/side)\n",
		cfg.AW, cfg.DW, cfg.MaxK, r.Workers, r.Runs)
	fmt.Fprintf(&b, "| run | time (1 process) | time (fleet, share off) | time (fleet, share on) | imported (on) |\n")
	fmt.Fprintf(&b, "|-----|-----------------:|------------------------:|-----------------------:|--------------:|\n")
	for i := 0; i < r.Runs; i++ {
		fmt.Fprintf(&b, "| %d | %s | %s | %s | %d |\n", i+1,
			r.Seq[i].Elapsed.Round(time.Millisecond),
			r.Off[i].Elapsed.Round(time.Millisecond),
			r.On[i].Elapsed.Round(time.Millisecond),
			r.On[i].Stats.SharedImported)
	}
	fmt.Fprintf(&b, "median: %s sequential, %s fleet off, %s fleet on — %.2fx sharing speedup (verdict %s on every run)\n",
		r.SeqMedian.Round(time.Millisecond), r.OffMedian.Round(time.Millisecond),
		r.OnMedian.Round(time.Millisecond), r.Speedup, r.Seq[0].Kind)
	return b.String()
}
