package exp

import (
	"context"
	"fmt"
	"strings"

	"emmver/internal/bmc"
	"emmver/internal/designs"
	"emmver/internal/par"
)

// T1Row is one row of Table 1: quicksort forward-induction proofs, EMM
// (BMC-3) vs Explicit Modeling (BMC-1).
type T1Row struct {
	N        int
	Prop     string
	D        int // forward proof diameter (from the EMM run)
	EMMSec   float64
	EMMMB    float64
	EMMTO    bool
	ExplSec  float64
	ExplMB   float64
	ExplTO   bool
	EMMKind  bmc.Kind
	ExplKind bmc.Kind
}

// quickSortConfig picks the design parameters for the scale.
func (c Config) quickSortConfig(n int) designs.QuickSortConfig {
	if c.Scale == ScalePaper {
		return designs.DefaultQuickSort(n)
	}
	return designs.QuickSortConfig{N: n, ArrayAW: 3, DataW: 4, StackAW: 3}
}

// Table1 reproduces Table 1: for each array size N and property P1/P2,
// prove by forward induction with EMM (BMC-3) and with Explicit Modeling
// (BMC-1), reporting time and memory.
func Table1(cfg Config, sizes []int) []T1Row {
	cfg.Log = par.SyncWriter(cfg.Log)
	type task struct {
		n    int
		prop string
	}
	var tasks []task
	for _, n := range sizes {
		for _, prop := range []string{"P1", "P2"} {
			tasks = append(tasks, task{n, prop})
		}
	}
	// Each (N, property) pair is an independent verification run: fan the
	// flattened task list over the worker pool, keeping the row order of
	// the sequential driver.
	rows := make([]T1Row, len(tasks))
	par.ForEach(context.Background(), cfg.Jobs, len(tasks), func(_ context.Context, _, ti int) {
		n, prop := tasks[ti].n, tasks[ti].prop
		qcfg := cfg.quickSortConfig(n)
		q := designs.NewQuickSort(qcfg)
		pi := q.P1Index
		if prop == "P2" {
			pi = q.P2Index
		}
		row := T1Row{N: n, Prop: prop}

		cfg.logf("table1: N=%d %s EMM ...", n, prop)
		opt := cfg.apply(bmc.Options{Engine: bmc.EngineBMC3, MaxDepth: 400})
		r := bmc.Check(q.Netlist(), pi, opt)
		row.EMMKind = r.Kind
		row.EMMSec = r.Stats.Elapsed.Seconds()
		row.EMMMB = r.Stats.PeakHeapMB
		row.EMMTO = r.Kind == bmc.KindTimeout
		if r.Kind == bmc.KindProof {
			row.D = r.Depth
		}

		cfg.logf("table1: N=%d %s Explicit ...", n, prop)
		exp := mustExpand(q.Netlist())
		re := bmc.Check(exp, pi, cfg.apply(bmc.Options{Engine: bmc.EngineBMC1, MaxDepth: 400}))
		row.ExplKind = re.Kind
		row.ExplSec = re.Stats.Elapsed.Seconds()
		row.ExplMB = re.Stats.PeakHeapMB
		row.ExplTO = re.Kind == bmc.KindTimeout

		rows[ti] = row
	})
	return rows
}

// RenderTable1 prints the rows like the paper's Table 1.
func RenderTable1(rows []T1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1. Performance summary on Quick Sort\n")
	fmt.Fprintf(&b, "| N | Prop | D | EMM sec | EMM MB | Explicit sec | Explicit MB |\n")
	fmt.Fprintf(&b, "|---|------|---|---------|--------|--------------|-------------|\n")
	for _, r := range rows {
		d := fmt.Sprintf("%d", r.D)
		if r.EMMTO {
			d = "-"
		}
		fmt.Fprintf(&b, "| %d | %s | %s | %s | %s | %s | %s |\n",
			r.N, r.Prop, d,
			fmtDur(durOf(r.EMMSec), r.EMMTO), fmtMB(r.EMMMB, r.EMMTO),
			fmtDur(durOf(r.ExplSec), r.ExplTO), fmtMB(r.ExplMB, r.ExplTO))
	}
	return b.String()
}
