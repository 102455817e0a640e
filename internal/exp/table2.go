package exp

import (
	"context"
	"fmt"
	"strings"
	"time"

	"emmver/internal/bmc"
	"emmver/internal/designs"
	"emmver/internal/par"
)

// T2Row is one row of Table 2: quicksort P2 through proof-based
// abstraction, EMM vs Explicit Modeling.
type T2Row struct {
	N int

	EMMKeptFF int
	EMMOrigFF int
	EMMPBASec float64
	EMMSec    float64
	EMMMB     float64
	EMMTO     bool
	EMMArray  bool // whether the array memory survived abstraction
	EMMKind   bmc.Kind

	ExplKeptFF int
	ExplOrigFF int
	ExplPBASec float64
	ExplSec    float64
	ExplMB     float64
	ExplTO     bool
	ExplKind   bmc.Kind
}

// Table2 reproduces Table 2: prove P2 with PBA, on the EMM model (BMC-3)
// and on the Explicit model (BMC-1), reporting the reduced model sizes,
// abstraction time, and proof time/memory. The paper's stability depth of
// 10 is used.
func Table2(cfg Config, sizes []int) []T2Row {
	cfg.Log = par.SyncWriter(cfg.Log)
	// Each array size is an independent pair of PBA runs: one worker per
	// row, row order preserved.
	rows := make([]T2Row, len(sizes))
	par.ForEach(context.Background(), cfg.Jobs, len(sizes), func(_ context.Context, _, si int) {
		n := sizes[si]
		qcfg := cfg.quickSortConfig(n)
		row := T2Row{N: n}

		cfg.logf("table2: N=%d EMM+PBA ...", n)
		q := designs.NewQuickSort(qcfg)
		opt := cfg.apply(bmc.Options{Engine: bmc.EngineBMC3, MaxDepth: 400, StabilityDepth: 10})
		res := bmc.ProveWithPBA(q.Netlist(), q.P2Index, opt)
		row.EMMOrigFF = len(q.Netlist().Latches)
		row.EMMPBASec = res.AbstractionTime.Seconds()
		row.EMMKind = res.Kind()
		if res.Abs != nil {
			row.EMMKeptFF = res.Abs.KeptLatches
			row.EMMArray = res.Abs.MemEnabled[0]
		}
		if res.Proof != nil {
			row.EMMSec = res.Proof.Stats.Elapsed.Seconds()
			row.EMMMB = res.Proof.Stats.PeakHeapMB
			row.EMMTO = res.Proof.Kind == bmc.KindTimeout
		} else {
			row.EMMTO = res.Phase1.Kind == bmc.KindTimeout
		}

		cfg.logf("table2: N=%d Explicit+PBA ...", n)
		exp := mustExpand(q.Netlist())
		eopt := cfg.apply(bmc.Options{Engine: bmc.EngineBMC1, MaxDepth: 400, StabilityDepth: 10})
		eres := bmc.ProveWithPBA(exp, q.P2Index, eopt)
		row.ExplOrigFF = len(exp.Latches)
		row.ExplPBASec = eres.AbstractionTime.Seconds()
		row.ExplKind = eres.Kind()
		if eres.Abs != nil {
			row.ExplKeptFF = eres.Abs.KeptLatches
		}
		if eres.Proof != nil {
			row.ExplSec = eres.Proof.Stats.Elapsed.Seconds()
			row.ExplMB = eres.Proof.Stats.PeakHeapMB
			row.ExplTO = eres.Proof.Kind == bmc.KindTimeout
		} else {
			row.ExplTO = eres.Phase1.Kind == bmc.KindTimeout
		}

		rows[si] = row
	})
	return rows
}

// RenderTable2 prints the rows like the paper's Table 2.
func RenderTable2(rows []T2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2. Performance summary on Quick Sort on P2 (PBA, stability depth 10)\n")
	fmt.Fprintf(&b, "| N | EMM FF (orig) | EMM PBA sec | EMM proof sec | EMM MB | array kept | Expl FF (orig) | Expl PBA sec | Expl proof sec | Expl MB |\n")
	fmt.Fprintf(&b, "|---|---------------|-------------|---------------|--------|------------|----------------|--------------|----------------|---------|\n")
	for _, r := range rows {
		eff := fmt.Sprintf("%d (%d)", r.EMMKeptFF, r.EMMOrigFF)
		xff := fmt.Sprintf("%d (%d)", r.ExplKeptFF, r.ExplOrigFF)
		if r.ExplTO && r.ExplKeptFF == 0 {
			xff = fmt.Sprintf("- (%d)", r.ExplOrigFF)
		}
		fmt.Fprintf(&b, "| %d | %s | %s | %s | %s | %v | %s | %s | %s | %s |\n",
			r.N, eff,
			fmtDur(time.Duration(r.EMMPBASec*float64(time.Second)), false),
			fmtDur(durOf(r.EMMSec), r.EMMTO), fmtMB(r.EMMMB, r.EMMTO),
			r.EMMArray, xff,
			fmtDur(durOf(r.ExplPBASec), r.ExplTO && r.ExplKeptFF == 0),
			fmtDur(durOf(r.ExplSec), r.ExplTO), fmtMB(r.ExplMB, r.ExplTO))
	}
	return b.String()
}
