// Command emmtables regenerates the paper's evaluation artifacts:
//
//	emmtables -exp t1            Table 1 (quicksort, EMM vs Explicit)
//	emmtables -exp t2            Table 2 (quicksort P2 with PBA)
//	emmtables -exp i1            Industry I (image filter, 216 properties)
//	emmtables -exp i2            Industry II (multi-port lookup engine)
//	emmtables -exp f1            constraint-growth validation ("figure")
//	emmtables -exp s3            compile-pipeline A/B (§S3)
//	emmtables -exp all           everything
//
// By default experiments run at the reduced scale (small memory widths,
// everything finishes in seconds). Pass -scale paper for the paper's exact
// parameters; the explicit baseline then times out, as it did for the
// authors, so pick -timeout accordingly.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"emmver/internal/cliobs"
	"emmver/internal/exp"
	"emmver/internal/spec"
)

func main() {
	which := flag.String("exp", "all", "experiment: t1, t2, i1, i2, f1, s3, all")
	scale := flag.String("scale", "reduced", "design sizing: reduced or paper")
	sizes := flag.String("n", "3,4,5", "quicksort array sizes for t1/t2")
	verbose := flag.Bool("v", false, "log per-run progress to stderr")
	// Each experiment fixes its own engines and depths, so those schema
	// flags stay unregistered; -timeout and -jobs come from the schema with
	// this tool's tighter budget as the default.
	req := spec.Default()
	req.Timeout = spec.Duration(2 * time.Minute)
	spec.RegisterFlags(flag.CommandLine, &req, "engine", "depth")
	obsFlags := cliobs.Register()
	flag.Parse()
	opt, err := req.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	observer, obsStop := obsFlags.Setup()
	defer obsStop()
	cfg := exp.Config{
		Timeout: opt.Timeout, Jobs: opt.Jobs, Obs: observer, Passes: opt.Passes,
	}
	switch *scale {
	case "reduced":
		cfg.Scale = exp.ScaleReduced
	case "paper":
		cfg.Scale = exp.ScalePaper
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *verbose {
		cfg.Log = os.Stderr
	}

	var ns []int
	for _, s := range strings.Split(*sizes, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 2 {
			fmt.Fprintf(os.Stderr, "bad -n element %q\n", s)
			os.Exit(2)
		}
		ns = append(ns, v)
	}

	run := func(name string) {
		switch name {
		case "t1":
			fmt.Printf("## Experiment T1 (scale=%s, timeout=%s)\n\n", cfg.Scale, cfg.Timeout)
			fmt.Println(exp.RenderTable1(exp.Table1(cfg, ns)))
		case "t2":
			fmt.Printf("## Experiment T2 (scale=%s, timeout=%s)\n\n", cfg.Scale, cfg.Timeout)
			fmt.Println(exp.RenderTable2(exp.Table2(cfg, ns)))
		case "i1":
			fmt.Printf("## Experiment I1 (scale=%s, timeout=%s)\n\n", cfg.Scale, cfg.Timeout)
			fmt.Println(exp.RenderIndustry1(exp.Industry1(cfg)))
		case "i2":
			fmt.Printf("## Experiment I2 (scale=%s, timeout=%s)\n\n", cfg.Scale, cfg.Timeout)
			fmt.Println(exp.RenderIndustry2(exp.Industry2(cfg)))
		case "f1":
			fmt.Printf("## Experiment F1 (constraint growth)\n\n")
			fmt.Println(exp.RenderGrowth(exp.Growth(exp.DefaultGrowth())))
		case "s3":
			fmt.Printf("## Experiment S3 (compile pipeline A/B)\n\n")
			ab, err := exp.CompileAB(exp.DefaultCompileAB())
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			fmt.Println(exp.RenderCompileAB(ab))
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	if *which == "all" {
		for _, name := range []string{"t1", "t2", "i1", "i2", "f1", "s3"} {
			run(name)
		}
		return
	}
	run(*which)
}
