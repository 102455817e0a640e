// Command emmv model-checks a design with the EMM-based engines. The
// design is a file — Verilog (.v/.sv; memory arrays are inferred as
// embedded memory modules), BTOR2 (.btor2/.btor; array states map onto
// embedded memory modules, not bit-blasted) or AIGER (.aag/.aig) — or one
// of the paper's built-in case studies, selected with -design.
//
//	emmv design.v                                # prove all assertions (BMC-3)
//	emmv -top quicksort -param N=4 design.v      # Verilog parameter override
//	emmv -engine bmc2 -depth 80 model.btor2      # falsification only
//	emmv -design quicksort -n 3 -prop p1         # a built-in case study
//	emmv -design filter -prop 3 -engine bmc2 -vcd bug.vcd  # dump the counter-example
//	emmv -design lookup -prop 1 -engine bdd -explicit      # BDD reachability
//	emmv -engine pba design.v                    # prove with abstraction
//	emmv -explicit design.v                      # Explicit Modeling baseline
//	emmv -design quicksort -export q.btor2       # write the model and exit
//	emmv -remote unix:/tmp/emmserved.sock d.v    # solve on an emmserved server
//
// Engines: bmc1 (plain + proofs; needs -explicit on a design with
// memories), bmc2 (EMM falsification), bmc3 (EMM + proofs; a memory with
// no write port keeps its declared contents in the induction step), pba
// (two-phase prove-with-abstraction), and bdd (BDD-based reachability;
// needs -explicit). -explicit first expands every memory into latches (the
// paper's Explicit Modeling baseline).
//
// Exit status: 0 when every property is PROOF or NO_CE, 1 when any property
// has a counter-example, 2 for usage, I/O, parse and spec errors and for
// any other verdict (TIMEOUT, STABLE, a BDD blowup).
package main

import (
	"context"
	"encoding/base64"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"emmver/internal/aig"
	"emmver/internal/aiger"
	"emmver/internal/bdd"
	"emmver/internal/bmc"
	"emmver/internal/btor2"
	"emmver/internal/cliobs"
	"emmver/internal/designs"
	"emmver/internal/exp"
	"emmver/internal/expmem"
	"emmver/internal/par"
	"emmver/internal/pass"
	"emmver/internal/serve"
	"emmver/internal/spec"
	"emmver/internal/vcd"
)

// formats maps a file extension to the serve.ParseNetlist format name; the
// -export writer is picked by the same table.
var formats = map[string]string{
	".v": "verilog", ".sv": "verilog",
	".btor2": "btor2", ".btor": "btor2",
	".aag": "aiger", ".aig": "aiger",
}

func main() {
	design := flag.String("design", "", "verify a built-in case study instead of a file: quicksort, filter, lookup, or growth (the shared-address experiment shape)")
	size := flag.Int("n", 3, "quicksort array size (-design)")
	reduced := flag.Bool("reduced", true, "use reduced memory widths (fast); false = paper widths (-design)")
	prop := flag.String("prop", "", "property of -design: p1/p2 (quicksort), inv or index (lookup), index (filter); default all")
	top := flag.String("top", "", "Verilog top module (default: the last module in the file)")
	params := map[string]uint64{}
	flag.Func("param", "Verilog parameter override NAME=VALUE (repeatable)", func(s string) error {
		name, val, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("expected NAME=VALUE, got %q", s)
		}
		v, err := strconv.ParseUint(val, 0, 64)
		params[name] = v
		return err
	})
	remote := flag.String("remote", "",
		"submit to an emmserved job server at this address (unix:/path, tcp:host:port, or a socket path) instead of solving locally")
	explicit := flag.Bool("explicit", false, "expand memories into latches first")
	bddNodes := flag.Int("bddnodes", 500000, "BDD node budget for -engine bdd")
	vcdOut := flag.String("vcd", "", "write the first counter-example waveform here")
	export := flag.String("export", "", "write the model (after -explicit) to this .btor2/.btor/.aag/.aig file and exit")
	stats := flag.Bool("stats", false, "print solver, EMM and per-depth stats")
	verbose := flag.Bool("v", false, "log per-depth progress")
	req := spec.Default()
	spec.RegisterFlags(flag.CommandLine, &req)
	// BDD reachability sits outside the request schema, so the engine
	// registry does not list it; emmv dispatches it itself.
	flag.Lookup("engine").Usage += ", bdd (BDD-based reachability; needs -explicit, not -remote)"
	obsFlags := cliobs.Register()
	flag.Parse()
	if *remote != "" && (*design != "" || *explicit || req.Canonical().Engine == "bdd") {
		must(errors.New("-remote submits a design file to the server's engines; it excludes -design, -explicit and -engine bdd"))
	}

	var n *aig.Netlist
	var sel []int
	var format string
	var src []byte
	var err error
	switch {
	case *design != "" && flag.NArg() == 0:
		n, sel, err = buildDesign(*design, *size, *reduced, *prop)
	case *design == "" && flag.NArg() == 1:
		if *prop != "" {
			must(errors.New("-prop selects a property of a built-in -design"))
		}
		path := flag.Arg(0)
		format = formats[strings.ToLower(filepath.Ext(path))]
		if format == "" {
			must(fmt.Errorf("%s: unknown extension (want .v, .sv, .btor2, .btor, .aag, or .aig)", path))
		}
		if src, err = os.ReadFile(path); err == nil {
			n, err = serve.ParseNetlist(format, src, *top, params)
		}
		must(err)
		sel = allProps(n)
	default:
		must(errors.New("usage: emmv [flags] design.{v,sv,btor2,btor,aag,aig} | emmv [flags] -design NAME"))
	}
	must(err)
	fmt.Printf("model: %s, %d properties\n", n.Stats(), len(n.Props))
	if *explicit {
		n, _, err = expmem.Expand(n)
		must(err)
		fmt.Printf("explicit model: %s\n", n.Stats())
	}
	if *export != "" {
		must(writeNetlist(*export, n))
		fmt.Printf("wrote %s\n", *export)
		return
	}
	if len(sel) == 0 {
		fmt.Println("nothing to verify (no properties)")
		return
	}

	engine := req.Canonical().Engine
	if engine == "bdd" {
		// BDD reachability sits outside the request schema (no depth, no
		// solver); dispatch before the Spec conversion.
		if len(n.Memories) > 0 {
			must(errors.New("the BDD engine needs -explicit"))
		}
		ce, abnormal := false, false
		for _, pi := range sel {
			r, err := bdd.CheckSafety(n, pi, *bddNodes)
			must(err)
			fmt.Printf("  [%s] %s\n", n.Props[pi].Name, r)
			ce = ce || r.Kind == bdd.MCViolated
			abnormal = abnormal || r.Kind == bdd.MCBlowup
		}
		os.Exit(exitCode(ce, abnormal))
	}

	results := make([]*bmc.Result, len(sel))
	notes := make([]string, len(sel))
	var st bmc.Stats
	var depthStats []bmc.DepthStat
	observer, obsStop := obsFlags.Setup()
	if *remote != "" {
		// Client mode: the server parses, keys, caches, and solves; this
		// process only renders verdicts. One job per property. The server
		// also refuses bmc1 on memories, unless a cached proof answers.
		cl := serve.NewClient(*remote)
		for i, pi := range sel {
			js, err := cl.Submit(serve.Request{
				Format: format, SourceB64: base64.StdEncoding.EncodeToString(src),
				Top: *top, Params: params, Prop: pi, Spec: req,
			}, true)
			must(err)
			if js.State != "done" {
				must(fmt.Errorf("[%s] job %s %s: %s", n.Props[pi].Name, js.ID, js.State, js.Error))
			}
			results[i] = remoteResult(js.Verdict)
			if js.Cached {
				notes[i] = " (cached)"
			} else if js.WarmStart > 0 {
				notes[i] = fmt.Sprintf(" (warm-started at depth %d)", js.WarmStart)
			}
		}
	} else {
		must(req.CheckModel(n))
		opt, err := req.Options()
		must(err)
		// Expanded memories are latches now (an EMM engine on them is
		// plain BMC); skip the replay against the memory model.
		opt.ValidateWitness = !*explicit
		if *verbose {
			opt.Log = os.Stderr
		}
		if s := describeCompile(n, sel, opt.Passes); s != "" {
			fmt.Printf("compile: %s\n", s)
		}
		opt.Obs = observer
		switch {
		case engine == spec.EnginePBA:
			par.ForEach(context.Background(), opt.Jobs, len(sel), func(_ context.Context, _, i int) {
				res := bmc.ProveWithPBA(n, sel[i], opt)
				results[i] = res.Phase1
				if res.Proof != nil {
					results[i] = res.Proof
				}
				if res.Abs != nil {
					notes[i] = fmt.Sprintf(" [abstraction: %s]", res.Abs)
				}
			})
			for _, r := range results {
				st.Add(r.Stats)
			}
		default:
			mr := bmc.CheckManyParallel(n, sel, opt, opt.Jobs)
			results, st, depthStats = mr.Results, mr.Stats, mr.DepthStats
		}
	}

	// Render in selection order; the first CE in that order gets the
	// waveform dump.
	ce, abnormal := false, false
	for i, pi := range sel {
		r, name := results[i], n.Props[pi].Name
		fmt.Printf("  [%s] %s%s\n", name, r, notes[i])
		switch r.Kind {
		case bmc.KindProof, bmc.KindNoCE:
			continue
		case bmc.KindCE:
			ce = true
		default:
			abnormal = true
			continue
		}
		if r.Witness == nil {
			fmt.Printf("  [%s] counter-example held by the server that found it (no local witness)\n", name)
			continue
		}
		cleared := 0
		if !*explicit {
			cleared = r.Witness.Minimize(n, pi)
		}
		fmt.Printf("  [%s] counter-example of length %d (validated on the concrete design: %v; minimized by %d)\n",
			name, r.Witness.Length, !*explicit, cleared)
		if *vcdOut != "" {
			must(create(*vcdOut, func(w io.Writer) error { return vcd.DumpWitness(w, n, r.Witness, pi) }))
			fmt.Printf("  [%s] waveform written to %s\n", name, *vcdOut)
			*vcdOut = ""
		}
	}
	if *stats {
		printStats(st, depthStats)
	}
	obsStop()
	os.Exit(exitCode(ce, abnormal))
}

// describeCompile runs the static pipeline once over n for the given
// property set and returns a one-line reduction summary, or "" when the
// pipeline is disabled, invalid, or removes nothing. The engines re-run the
// pipeline internally; this only reports what it will do before the (much
// longer) solve starts.
func describeCompile(n *aig.Netlist, props []int, passes string) string {
	c, err := pass.Compile(n, props, pass.Options{Spec: passes})
	if err != nil {
		return ""
	}
	return c.Summary()
}

// exitCode is the one exit-status contract: 1 when any property has a
// counter-example, else 2 when any verdict is neither PROOF nor NO_CE,
// else 0.
func exitCode(ce, abnormal bool) int {
	switch {
	case ce:
		return 1
	case abnormal:
		return 2
	}
	return 0
}

// remoteResult renders a served verdict as the engine result it reports.
func remoteResult(v *serve.Verdict) *bmc.Result {
	r := &bmc.Result{Kind: -1, Depth: v.Depth, ProofSide: v.ProofSide, Witness: v.Witness}
	for k := bmc.KindNoCE; k <= bmc.KindTimeout; k++ {
		if k.String() == v.Kind {
			r.Kind = k
		}
	}
	r.Stats.Elapsed = time.Duration(v.ElapsedMS) * time.Millisecond
	return r
}

func printStats(st bmc.Stats, depthStats []bmc.DepthStat) {
	fmt.Printf("stats: %d solver calls, %d clauses, %d vars, %d conflicts, %.0f MB heap\n",
		st.SolveCalls, st.Clauses, st.Vars, st.Conflicts, st.PeakHeapMB)
	fmt.Printf("restarts: %d\n", st.Restarts)
	if st.EMM.Clauses() > 0 {
		fmt.Printf("emm constraints: %s\n", st.EMM)
	}
	if st.LazyRounds > 0 || st.EMM.LazyReads > 0 {
		fmt.Printf("lazy emm: %d reads tracked, %d axiom levels, %d completed, %d refinement rounds (%d spurious)\n",
			st.EMM.LazyReads, st.EMM.LazyAxioms, st.EMM.LazyCompleted, st.LazyRounds, st.LazySpurious)
	}
	if st.LFPPairs > 0 || st.LFPRounds > 0 {
		fmt.Printf("loop-free path: %d pair constraints added on demand, %d refinement rounds\n",
			st.LFPPairs, st.LFPRounds)
	}
	for _, d := range depthStats {
		fmt.Println(d)
	}
}

// writeNetlist writes n in the format path's extension names.
func writeNetlist(path string, n *aig.Netlist) error {
	ext := strings.ToLower(filepath.Ext(path))
	switch formats[ext] {
	case "aiger":
		return create(path, func(w io.Writer) error { return aiger.Write(w, n, ext == ".aig") })
	case "btor2":
		return create(path, func(w io.Writer) error { return btor2.Write(w, n) })
	}
	return fmt.Errorf("-export %s: no writer for this extension (want .btor2, .btor, .aag, or .aig)", path)
}

// create writes the file at path through write, removing it again when
// the write fails.
func create(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// buildDesign builds a built-in case study and resolves -prop against it:
// "" selects every property; quicksort and lookup name theirs (p1/p2, inv
// and the reachability indices), filter and growth take a property index.
func buildDesign(name string, size int, reduced bool, prop string) (*aig.Netlist, []int, error) {
	var n *aig.Netlist
	named := map[string]int{}
	switch name {
	case "quicksort":
		cfg := designs.DefaultQuickSort(size)
		if reduced {
			cfg = designs.QuickSortConfig{N: size, ArrayAW: 4, DataW: 8, StackAW: 4}
		}
		q := designs.NewQuickSort(cfg)
		n, named["p1"], named["p2"] = q.Netlist(), q.P1Index, q.P2Index
	case "filter":
		cfg := designs.DefaultImageFilter()
		if reduced {
			cfg = designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 16}
		}
		n = designs.NewImageFilter(cfg).Netlist()
	case "lookup":
		cfg := designs.DefaultLookup()
		if reduced {
			cfg = designs.LookupConfig{AW: 4, DW: 6, NumProps: 8, Latency: 6}
		}
		l := designs.NewLookup(cfg)
		n, named["inv"] = l.Netlist(), l.InvariantIndex
		for i, pi := range l.ReachIndices {
			named[strconv.Itoa(i)] = pi
		}
	case "growth":
		// The §S2 experiment shape: one memory, one write port, two read
		// ports on a shared address bus, one valid read-consistency property.
		n = exp.GrowthSolveNetlist(exp.DefaultGrowthSolve())
	default:
		return nil, nil, errors.New("designs are quicksort, filter, lookup, and growth")
	}
	if prop == "" {
		return n, allProps(n), nil
	}
	if pi, ok := named[strings.ToLower(prop)]; ok {
		return n, []int{pi}, nil
	}
	if i, err := strconv.Atoi(prop); err == nil && len(named) == 0 && i >= 0 && i < len(n.Props) {
		return n, []int{i}, nil
	}
	return nil, nil, fmt.Errorf("%s has no property %q", name, prop)
}

func allProps(n *aig.Netlist) []int {
	out := make([]int, len(n.Props))
	for i := range out {
		out[i] = i
	}
	return out
}

// must ends the run with exit status 2 on a usage, I/O, parse or spec
// error.
func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}
