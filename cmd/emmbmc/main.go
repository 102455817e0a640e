// Command emmbmc model-checks one of the built-in case-study designs with
// any of the paper's engines:
//
//	emmbmc -design quicksort -n 3 -prop p1 -engine bmc3
//	emmbmc -design quicksort -n 3 -prop p1 -engine bmc1 -explicit
//	emmbmc -design lookup -prop inv -engine bmc3
//	emmbmc -design filter -prop 42 -engine bmc2
//	emmbmc -design quicksort -prop p2 -engine pba
//	emmbmc -design growth -prop 0 -engine kind
//	emmbmc -design lookup -prop 1 -engine bdd -explicit
//
// Engines: bmc1 (plain + proofs), bmc2 (EMM falsification), bmc3 (EMM +
// proofs + PBA), kind (k-induction with write-free-init retention), pba
// (two-phase prove-with-abstraction), bdd (BDD-based reachability;
// requires -explicit). -explicit first expands every memory into latches
// (the paper's Explicit Modeling baseline).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"emmver/internal/aig"
	"emmver/internal/aiger"
	"emmver/internal/bdd"
	"emmver/internal/bmc"
	"emmver/internal/cliobs"
	"emmver/internal/designs"
	"emmver/internal/exp"
	"emmver/internal/expmem"
	"emmver/internal/obs"
	"emmver/internal/spec"
	"emmver/internal/vcd"
)

func main() {
	design := flag.String("design", "quicksort", "quicksort, filter, lookup, or growth (the shared-address experiment shape)")
	n := flag.Int("n", 3, "quicksort array size")
	reduced := flag.Bool("reduced", true, "use reduced memory widths (fast); false = paper widths")
	prop := flag.String("prop", "p1", "property: p1/p2 (quicksort), inv or index (lookup), index (filter)")
	explicit := flag.Bool("explicit", false, "expand memories into latches first")
	bddNodes := flag.Int("bddnodes", 500000, "BDD node budget for -engine bdd")
	vcdOut := flag.String("vcd", "", "write a counter-example waveform to this file")
	aigerOut := flag.String("aiger", "", "write the (memory-free) model as AIGER to this file and exit")
	stats := flag.Bool("stats", false, "print per-depth solver stats and EMM sizes")
	verbose := flag.Bool("v", false, "log per-depth progress")
	// The schema's flags with this tool's deeper default bound; "bdd" is an
	// extra engine value handled here before the spec conversion.
	def := spec.Default()
	def.Depth = 200
	engFlags := cliobs.RegisterEngineFor(def)
	obsFlags := cliobs.Register()
	flag.Parse()
	engine := engFlags.Request().Canonical().Engine

	netlist, pi := buildDesign(*design, *n, *reduced, *prop)
	if *explicit {
		var err error
		netlist, _, err = expmem.Expand(netlist)
		if err != nil {
			fail(err.Error())
		}
		fmt.Printf("explicit model: %s\n", netlist.Stats())
	} else {
		fmt.Printf("model: %s\n", netlist.Stats())
	}

	if *aigerOut != "" {
		f, err := os.Create(*aigerOut)
		if err != nil {
			fail(err.Error())
		}
		defer f.Close()
		if err := aiger.Write(f, netlist, true); err != nil {
			fail(err.Error())
		}
		fmt.Printf("wrote %s\n", *aigerOut)
		return
	}

	if engine == "bdd" {
		// BDD reachability sits outside the request schema (no depth, no
		// solver); dispatch before the Spec conversion.
		if len(netlist.Memories) > 0 {
			fmt.Fprintln(os.Stderr, "the BDD engine needs -explicit")
			os.Exit(2)
		}
		r, err := bdd.CheckSafety(netlist, pi, *bddNodes)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("verdict: %s\n", r)
		return
	}
	opt, err := engFlags.Options()
	if err != nil {
		fail(err.Error())
	}
	opt.ValidateWitness = !*explicit
	if s := cliobs.DescribeCompile(netlist, []int{pi}, opt.Passes); s != "" {
		fmt.Printf("compile: %s\n", s)
	}
	opt.CollectDepthStats = *stats
	// With more than one job the engine races forward/backward termination
	// on separate goroutines at each depth (only meaningful with proofs;
	// k-induction fixes its own check order, so the race never applies).
	opt.Portfolio = opt.Portfolio || (opt.Jobs != 1 && !opt.KInduction)
	if *verbose {
		opt.Log = os.Stderr
	}
	observer, obsStop := obsFlags.Setup()
	defer obsStop()
	if engFlags.DistActive() && observer.Registry() == nil {
		// The sharenet frame counters live in the obs registry; give the
		// distributed path one even when no -trace/-progress flag asked.
		observer = obs.New(obs.NewRegistry(), nil)
	}
	opt.Obs = observer
	if engine == "pba" {
		res := bmc.ProveWithPBA(netlist, pi, opt)
		fmt.Printf("phase 1: %s (%.1fs)\n", res.Phase1, res.AbstractionTime.Seconds())
		if res.Abs != nil {
			fmt.Printf("abstraction: %s\n", res.Abs)
		}
		if res.Proof != nil {
			fmt.Printf("phase 2: %s\n", res.Proof)
		}
		fmt.Printf("verdict: %s\n", res.Kind())
		return
	}
	if *explicit {
		opt.UseEMM = false
	}
	var r *bmc.Result
	if engFlags.DistActive() {
		// Distributed fleet: this process brokers (-listen) or joins
		// (-connect) a cross-process cube-and-conquer run.
		r, err = engFlags.RunDist(netlist, pi, opt)
		if err != nil {
			fail(err.Error())
		}
	} else {
		r = bmc.Check(netlist, pi, opt)
	}
	fmt.Printf("verdict: %s\n", r)
	if r.Kind == bmc.KindProof {
		fmt.Printf("proved by %s termination at depth %d\n", r.ProofSide, r.Depth)
	}
	if r.Kind == bmc.KindCE && r.Witness == nil {
		// A distributed peer found the counter-example; the witness lives in
		// that worker's process.
		fmt.Println("counter-example found by a remote fleet worker (no local witness)")
	}
	if r.Kind == bmc.KindCE && r.Witness != nil {
		fmt.Printf("counter-example of length %d (validated on the concrete design: %v)\n",
			r.Witness.Length, !*explicit)
		if !*explicit {
			r.Witness.Minimize(netlist, pi)
		}
		if *vcdOut != "" {
			f, err := os.Create(*vcdOut)
			if err != nil {
				fail(err.Error())
			}
			defer f.Close()
			if err := vcd.DumpWitness(f, netlist, r.Witness, pi); err != nil {
				fail(err.Error())
			}
			fmt.Printf("waveform written to %s\n", *vcdOut)
		}
	}
	fmt.Printf("stats: %d solver calls, %d clauses, %d vars, %d conflicts, %.0f MB heap\n",
		r.Stats.SolveCalls, r.Stats.Clauses, r.Stats.Vars, r.Stats.Conflicts, r.Stats.PeakHeapMB)
	fmt.Printf("restarts: %d (luby %d, ema %d)\n",
		r.Stats.Restarts, r.Stats.RestartsLuby, r.Stats.RestartsEMA)
	if r.Stats.Simplifies > 0 {
		fmt.Printf("inprocessing: %d passes, %d clauses subsumed, %d strengthened, %d vars eliminated\n",
			r.Stats.Simplifies, r.Stats.SubsumedClauses, r.Stats.StrengthenedClauses, r.Stats.EliminatedVars)
	}
	if r.Stats.SharedExported > 0 || r.Stats.SharedImported > 0 || r.Stats.SharedDropped > 0 {
		fmt.Printf("sharing: %d clauses exported, %d imported, %d filtered, %d dropped\n",
			r.Stats.SharedExported, r.Stats.SharedImported, r.Stats.SharedFiltered, r.Stats.SharedDropped)
	}
	if engFlags.DistActive() {
		reg := observer.Registry()
		fmt.Printf("sharenet: %d frames sent, %d received, %d dropped, %d reconnects\n",
			reg.Counter(obs.MNetSent).Value(), reg.Counter(obs.MNetReceived).Value(),
			reg.Counter(obs.MNetDropped).Value(), reg.Counter(obs.MNetReconnects).Value())
	}
	if r.Stats.EMM.Clauses() > 0 {
		fmt.Printf("emm constraints: %s\n", r.Stats.EMM)
	}
	if r.Stats.LazyRounds > 0 || r.Stats.EMM.LazyReads > 0 {
		fmt.Printf("lazy emm: %d reads tracked, %d axiom levels, %d completed, %d refinement rounds (%d spurious)\n",
			r.Stats.EMM.LazyReads, r.Stats.EMM.LazyAxioms, r.Stats.EMM.LazyCompleted,
			r.Stats.LazyRounds, r.Stats.LazySpurious)
	}
	if r.Stats.LFPPairs > 0 || r.Stats.LFPRounds > 0 {
		fmt.Printf("loop-free path: %d pair constraints added on demand, %d refinement rounds\n",
			r.Stats.LFPPairs, r.Stats.LFPRounds)
	}
	for _, d := range r.DepthStats {
		fmt.Println(d)
	}
}

func buildDesign(name string, n int, reduced bool, prop string) (*aig.Netlist, int) {
	switch name {
	case "quicksort":
		cfg := designs.DefaultQuickSort(n)
		if reduced {
			cfg = designs.QuickSortConfig{N: n, ArrayAW: 4, DataW: 8, StackAW: 4}
		}
		q := designs.NewQuickSort(cfg)
		switch prop {
		case "p1", "P1":
			return q.Netlist(), q.P1Index
		case "p2", "P2":
			return q.Netlist(), q.P2Index
		}
		fail("quicksort properties are p1 and p2")
	case "filter":
		cfg := designs.DefaultImageFilter()
		if reduced {
			cfg = designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 16}
		}
		f := designs.NewImageFilter(cfg)
		idx, err := strconv.Atoi(prop)
		if err != nil || idx < 0 || idx >= cfg.NumProps {
			fail(fmt.Sprintf("filter properties are 0..%d", cfg.NumProps-1))
		}
		return f.Netlist(), idx
	case "lookup":
		cfg := designs.DefaultLookup()
		if reduced {
			cfg = designs.LookupConfig{AW: 4, DW: 6, NumProps: 8, Latency: 6}
		}
		l := designs.NewLookup(cfg)
		if prop == "inv" {
			return l.Netlist(), l.InvariantIndex
		}
		idx, err := strconv.Atoi(prop)
		if err != nil || idx < 0 || idx >= len(l.ReachIndices) {
			fail("lookup properties are inv or 0..7")
		}
		return l.Netlist(), l.ReachIndices[idx]
	case "growth":
		// The §S2/§S5 experiment shape: one memory, one write port, two read
		// ports on a shared address bus, one valid read-consistency property.
		return exp.GrowthSolveNetlist(exp.DefaultGrowthSolve()), 0
	}
	fail("designs are quicksort, filter, lookup, and growth")
	return nil, 0
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(2)
}
