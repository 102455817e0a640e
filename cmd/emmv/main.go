// Command emmv verifies Verilog designs: it elaborates a synthesizable
// subset (with memory arrays inferred as embedded memory modules) and
// model-checks the design's assert() properties with the EMM-based
// engines.
//
//	emmv design.v                                # prove all assertions (BMC-3)
//	emmv -top quicksort -param N=4 design.v      # parameter override
//	emmv -engine bmc2 -depth 50 design.v         # falsification only
//	emmv -engine pba design.v                    # prove with abstraction
//	emmv -engine kind design.v                   # unbounded proof by k-induction
//	emmv -explicit design.v                      # Explicit Modeling baseline
//	emmv -vcd bug.vcd design.v                   # dump counter-examples
//	emmv -remote unix:/tmp/emmserved.sock d.v    # solve on an emmserved server
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"emmver/internal/bmc"
	"emmver/internal/cliobs"
	"emmver/internal/expmem"
	"emmver/internal/par"
	"emmver/internal/serve"
	"emmver/internal/vcd"
	"emmver/internal/verilog"
)

type paramFlags map[string]uint64

func (p paramFlags) String() string { return "" }
func (p paramFlags) Set(s string) error {
	eq := strings.IndexByte(s, '=')
	if eq < 0 {
		return fmt.Errorf("expected NAME=VALUE, got %q", s)
	}
	v, err := strconv.ParseUint(s[eq+1:], 0, 64)
	if err != nil {
		return err
	}
	p[s[:eq]] = v
	return nil
}

func main() {
	top := flag.String("top", "", "top module (default: the last module in the file)")
	remote := flag.String("remote", "",
		"submit to an emmserved job server at this address (unix:/path, tcp:host:port, or a socket path) instead of solving locally")
	explicit := flag.Bool("explicit", false, "expand memories into latches first")
	vcdOut := flag.String("vcd", "", "write the first counter-example waveform here")
	stats := flag.Bool("stats", false, "print per-depth solver stats and EMM sizes (forces a sequential run)")
	verbose := flag.Bool("v", false, "log per-depth progress")
	engFlags := cliobs.RegisterEngine()
	obsFlags := cliobs.Register()
	params := paramFlags{}
	flag.Var(params, "param", "parameter override NAME=VALUE (repeatable)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: emmv [flags] design.v")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	file, err := verilog.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	topName := *top
	if topName == "" {
		topName = file.Modules[len(file.Modules)-1].Name
	}
	n, err := verilog.ElaborateWithParams(file, topName, params)
	if err != nil {
		fatal(err)
	}
	orig := n
	fmt.Printf("%s: %s, %d properties\n", topName, n.Stats(), len(n.Props))
	if len(n.Props) == 0 {
		fmt.Println("nothing to verify (no assert() items)")
		return
	}
	if *remote != "" {
		// Client mode: the server parses, keys, caches, and solves; this
		// process only renders verdicts. One job per assertion.
		if *explicit || engFlags.DistActive() {
			fatal(fmt.Errorf("-remote excludes -explicit, -listen, and -connect"))
		}
		cl := serve.NewClient(*remote)
		req := engFlags.Request()
		fails := 0
		for pi, p := range n.Props {
			st, err := cl.Submit(serve.Request{
				Format: "verilog", Source: string(src), Top: topName,
				Params: params, Prop: pi, Spec: req,
			}, true)
			if err != nil {
				fatal(err)
			}
			if st.State != "done" {
				fatal(fmt.Errorf("[%s] job %s %s: %s", p.Name, st.ID, st.State, st.Error))
			}
			note := ""
			if st.Cached {
				note = " (cached)"
			} else if st.WarmStart > 0 {
				note = fmt.Sprintf(" (warm-started at depth %d)", st.WarmStart)
			}
			v := st.Verdict
			fmt.Printf("  [%s] %s depth=%d t=%dms%s\n", p.Name, v.Kind, v.Depth, v.ElapsedMS, note)
			if v.Kind == "CE" {
				fails++
				if v.Witness != nil {
					fmt.Printf("  [%s] counter-example of length %d\n", p.Name, v.Witness.Length)
				}
			}
		}
		if fails > 0 {
			os.Exit(1)
		}
		return
	}
	if *explicit {
		var err error
		n, _, err = expmem.Expand(n)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("explicit model: %s\n", n.Stats())
	}

	// The -engine/-depth/-timeout/-jobs/... flags all live in the request
	// schema; one conversion yields the engine configuration.
	req := engFlags.Request()
	engine := req.Canonical().Engine
	opt, err := engFlags.Options()
	if err != nil {
		fatal(err)
	}
	opt.ValidateWitness = !*explicit
	opt.CollectDepthStats = *stats
	if *verbose {
		allProps := make([]int, len(n.Props))
		for pi := range allProps {
			allProps[pi] = pi
		}
		if s := cliobs.DescribeCompile(n, allProps, opt.Passes); s != "" {
			fmt.Printf("compile: %s\n", s)
		}
	}
	if *verbose {
		opt.Log = os.Stderr
	}
	observer, obsStop := obsFlags.Setup()
	opt.Obs = observer
	if *explicit {
		// The memories were expanded away; solve the latch-level model.
		opt.UseEMM = false
	}

	// Check every assertion concurrently, then render in declaration
	// order (the first CE in that order gets the waveform dump).
	results := make([]*bmc.Result, len(n.Props))
	abstractions := make([]string, len(n.Props))
	var depthStats []bmc.DepthStat
	if engFlags.DistActive() {
		// Distributed fleet: one property per fleet (the cube partition is
		// property-specific), brokered (-listen) or joined (-connect).
		if len(n.Props) != 1 {
			fatal(fmt.Errorf("distributed mode verifies one property per fleet; %s asserts %d", topName, len(n.Props)))
		}
		// Engine × dist eligibility is the capability resolver's call
		// (RunDist checks it); no per-engine special cases here.
		r, err := engFlags.RunDist(n, 0, opt)
		if err != nil {
			fatal(err)
		}
		results[0] = r
	} else if engine == "pba" {
		par.ForEach(context.Background(), opt.Jobs, len(n.Props), func(_ context.Context, _, pi int) {
			res := bmc.ProveWithPBA(n, pi, opt)
			if res.Proof != nil {
				results[pi] = res.Proof
			} else {
				results[pi] = res.Phase1
			}
			if res.Abs != nil {
				abstractions[pi] = res.Abs.String()
			}
		})
	} else {
		props := make([]int, len(n.Props))
		for pi := range props {
			props[pi] = pi
		}
		var mr *bmc.ManyResult
		if *stats {
			// Per-depth stats need one shared engine processing depths in
			// order, so the run is sequential.
			mr = bmc.CheckMany(n, props, opt)
		} else {
			mr = bmc.CheckManyParallel(n, props, opt, opt.Jobs)
		}
		copy(results, mr.Results)
		depthStats = mr.DepthStats
		if *stats {
			fmt.Printf("stats: %d solver calls, %d conflicts, restarts %d (luby %d, ema %d)\n",
				mr.Stats.SolveCalls, mr.Stats.Conflicts,
				mr.Stats.Restarts, mr.Stats.RestartsLuby, mr.Stats.RestartsEMA)
			if mr.Stats.Simplifies > 0 {
				fmt.Printf("inprocessing: %d passes, %d clauses subsumed, %d strengthened, %d vars eliminated\n",
					mr.Stats.Simplifies, mr.Stats.SubsumedClauses,
					mr.Stats.StrengthenedClauses, mr.Stats.EliminatedVars)
			}
			if mr.Stats.LFPPairs > 0 || mr.Stats.LFPRounds > 0 {
				fmt.Printf("loop-free path: %d pair constraints added on demand, %d refinement rounds\n",
					mr.Stats.LFPPairs, mr.Stats.LFPRounds)
			}
		}
	}

	fails := 0
	for pi, p := range n.Props {
		r := results[pi]
		if abstractions[pi] != "" {
			fmt.Printf("  [%s] abstraction: %s\n", p.Name, abstractions[pi])
		}
		fmt.Printf("  [%s] %s\n", p.Name, r)
		if r.Kind == bmc.KindCE {
			fails++
			if r.Witness == nil {
				// A distributed peer holds the witness.
				continue
			}
			if !*explicit {
				r.Witness.Minimize(n, pi)
			}
			if *vcdOut != "" {
				f, err := os.Create(*vcdOut)
				if err != nil {
					fatal(err)
				}
				if err := vcd.DumpWitness(f, n, r.Witness, pi); err != nil {
					fatal(err)
				}
				f.Close()
				fmt.Printf("  [%s] waveform written to %s\n", p.Name, *vcdOut)
				*vcdOut = "" // only the first CE
			}
		}
	}
	if *stats {
		for _, d := range depthStats {
			fmt.Println(d)
		}
	}
	_ = orig
	obsStop()
	if fails > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
