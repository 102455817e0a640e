// Command emmsat is a standalone DIMACS CNF solver over the library's CDCL
// core, with optional UNSAT-core extraction:
//
//	emmsat problem.cnf
//	emmsat -core problem.cnf
//	emmsat -stats -trace run.jsonl problem.cnf
//
// -stats prints the full solver statistics block, and
// -trace/-progress/-pprof attach the observability layer exactly as on
// emmv.
//
// Exit status follows the SAT-competition convention: 10 for SAT, 20 for
// UNSAT, 1 for errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"emmver/internal/cliobs"
	"emmver/internal/obs"
	"emmver/internal/sat"
)

func main() {
	core := flag.Bool("core", false, "trace the proof and report an UNSAT core (clause indices)")
	budget := flag.Int64("conflicts", 0, "conflict budget (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget (0 = unlimited)")
	quiet := flag.Bool("q", false, "suppress the model/core listing")
	stats := flag.Bool("stats", false, "print the full solver statistics block")
	obsFlags := cliobs.Register()
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: emmsat [-core] [-conflicts N] [-stats] problem.cnf")
		os.Exit(1)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	observer, stopObs := obsFlags.Setup()

	s := sat.New()
	if *core {
		s.EnableProofTracing()
	}
	s.ConflictBudget = *budget
	if *timeout > 0 {
		deadline := time.Now().Add(*timeout)
		s.Interrupt = func() bool { return time.Now().After(deadline) }
	}
	s.AttachObs(observer)

	start := time.Now()
	nc, err := readTagged(s, f, *core)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sp := observer.Span("sat.solve", obs.F("file", flag.Arg(0)))
	res := s.Solve()
	sp.End()
	elapsed := time.Since(start)
	s.PublishObs()
	st := s.Stats()
	fmt.Printf("c %d vars, %d clauses, %d conflicts, %d decisions, %d propagations, %.3fs\n",
		s.NumVars(), nc, st.Conflicts, st.Decisions, st.Propagations, elapsed.Seconds())
	if *stats {
		printStats(st)
	}

	code := 0
	switch res {
	case sat.Sat:
		fmt.Println("s SATISFIABLE")
		if !*quiet {
			s.WriteModelDIMACS(os.Stdout)
		}
		code = 10
	case sat.Unsat:
		fmt.Println("s UNSATISFIABLE")
		if *core && !*quiet {
			tags := s.Core()
			fmt.Printf("c core: %d of %d clauses\n", len(tags), nc)
			fmt.Print("c core clause indices:")
			for _, tg := range tags {
				fmt.Printf(" %d", tg)
			}
			fmt.Println()
		}
		code = 20
	default:
		fmt.Println("s UNKNOWN")
	}
	stopObs()
	os.Exit(code)
}

// printStats renders the detailed statistics block in DIMACS comment lines.
func printStats(st sat.Stats) {
	fmt.Printf("c restarts: %d (blocked %d)\n", st.Restarts, st.RestartsBlocked)
	fmt.Printf("c learnts: %d added, %d deleted, %d reducedbs\n",
		st.LearntsAdded, st.LearntsDeleted, st.ReduceDBs)
	if st.LearntsAdded > 0 {
		fmt.Printf("c avg lbd: %.2f\n", float64(st.LBDSum)/float64(st.LearntsAdded))
	}
	fmt.Printf("c binary propagations: %d\n", st.BinPropagations)
}

// readTagged loads the CNF; with tagging, each clause carries its index so
// cores can reference input clauses.
func readTagged(s *sat.Solver, f *os.File, tagged bool) (int, error) {
	if !tagged {
		return s.ReadDIMACS(f)
	}
	// Re-read with per-clause tags: parse through a second solver to
	// reuse the DIMACS reader, then copy clause by clause.
	tmp := sat.New()
	n, err := tmp.ReadDIMACS(f)
	if err != nil {
		return n, err
	}
	for tmp.NumVars() > s.NumVars() {
		s.NewVar()
	}
	for i := 0; i < tmp.NumClauses(); i++ {
		s.AddClauseTagged(int64(i), tmp.ClauseAt(i))
	}
	return n, nil
}
