// Package exp regenerates the paper's evaluation artifacts: Table 1 and
// Table 2 (quicksort, EMM vs Explicit Modeling, with and without PBA), the
// Industry I and Industry II case-study narratives, and the
// constraint-growth validation of the §3/§4.1 closed forms. Each
// experiment returns structured rows and can render itself as a
// paper-style markdown table.
//
// Two scales are supported: ScalePaper uses the paper's exact design
// parameters (AW=10/DW=32 arrays, 216 properties, ...), where the explicit
// baseline times out just as it did for the authors; ScaleReduced shrinks
// widths so both engines finish in seconds and the crossover is
// measurable. EXPERIMENTS.md records results at both scales.
package exp

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"emmver/internal/aig"
	"emmver/internal/bmc"
	"emmver/internal/expmem"
	"emmver/internal/obs"
)

// Scale selects experiment sizing.
type Scale int

// Experiment scales.
const (
	// ScaleReduced shrinks memory widths so every engine terminates
	// quickly; used by the benchmark harness.
	ScaleReduced Scale = iota
	// ScalePaper uses the paper's exact parameters.
	ScalePaper
)

// String names the scale.
func (s Scale) String() string {
	if s == ScalePaper {
		return "paper"
	}
	return "reduced"
}

// Config parameterizes a harness run.
type Config struct {
	Scale Scale
	// Timeout bounds each individual verification run (the paper used 3
	// hours). Runs that exceed it are reported as ">TO", as in Table 1.
	Timeout time.Duration
	// Jobs bounds how many verification runs execute concurrently within
	// each experiment (<= 0 selects runtime.NumCPU). Note that concurrent
	// rows share the machine, so per-row times at Jobs > 1 measure
	// throughput, not isolated latency.
	Jobs int
	// Log receives progress lines (nil = quiet).
	Log io.Writer
	// Obs attaches the observability layer to every verification run an
	// experiment performs: solver/EMM/unroller metrics aggregate into its
	// registry and per-depth/solve spans flow to its trace sink, letting a
	// journal reconstruct e.g. Table 2 clause-growth curves. Nil is off.
	Obs *obs.Observer
	// Passes overrides the static compile-pipeline spec for every run:
	// "" keeps the default pipeline, "none" disables it. Sub-checks that
	// pin their own spec to replicate a paper number keep their pin.
	Passes string
}

// apply copies the run-wide knobs (timeout, observer, compile-pipeline
// spec) onto opt. An opt that already pins
// Passes keeps its pin — Industry II's invariant check relies on that to
// replicate the unreduced 2-induction depth.
func (c Config) apply(opt bmc.Options) bmc.Options {
	opt.Timeout = c.Timeout
	opt.Obs = c.Obs
	if opt.Passes == "" {
		opt.Passes = c.Passes
	}
	return opt
}

// DefaultConfig returns a reduced-scale configuration with the given
// per-run timeout.
func DefaultConfig(timeout time.Duration) Config {
	return Config{Scale: ScaleReduced, Timeout: timeout}
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// fmtDur renders a duration like the paper's seconds column.
func fmtDur(d time.Duration, timedOut bool) string {
	if timedOut {
		return ">TO"
	}
	if d < time.Second {
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
	return fmt.Sprintf("%.1fs", d.Seconds())
}

// fmtMB renders megabytes.
func fmtMB(mb float64, timedOut bool) string {
	if timedOut {
		return "NA"
	}
	return fmt.Sprintf("%.0f", mb)
}

// durOf converts seconds back to a duration for formatting.
func durOf(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}

// heapMB samples the current heap size.
func heapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// mustExpand builds the Explicit Modeling baseline of a harness-generated
// design. The generators only emit netlists Expand accepts, so a failure
// here is a harness bug and panics rather than polluting every row type
// with an error column.
func mustExpand(n *aig.Netlist) *aig.Netlist {
	out, _, err := expmem.Expand(n)
	if err != nil {
		panic(fmt.Sprintf("exp: explicit baseline expansion failed: %v", err))
	}
	return out
}
