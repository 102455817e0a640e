package exp

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"emmver/internal/aig"
	"emmver/internal/bdd"
	"emmver/internal/bmc"
	"emmver/internal/designs"
	"emmver/internal/par"
)

// I1Result captures the Industry I (image filter) narrative: how many of
// the reachability properties have witnesses, how deep the deepest witness
// is, how many are proved by induction, and the totals for EMM vs Explicit
// Modeling.
type I1Result struct {
	Props        int
	EMMWitnesses int
	EMMProofs    int
	EMMOther     int
	EMMMaxDepth  int
	EMMSec       float64
	EMMMB        float64

	ExplWitnesses int
	ExplProofs    int
	ExplOther     int
	ExplSec       float64
	ExplMB        float64
	ExplTO        bool
}

// filterConfig picks the design parameters for the scale.
func (c Config) filterConfig() designs.ImageFilterConfig {
	if c.Scale == ScalePaper {
		return designs.DefaultImageFilter()
	}
	return designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 16}
}

// Industry1 reproduces the Industry I case study.
func Industry1(cfg Config) *I1Result {
	fcfg := cfg.filterConfig()
	res := &I1Result{Props: fcfg.NumProps}
	f := designs.NewImageFilter(fcfg)

	// Two phases, as in the paper: hunt witnesses with plain (EMM) BMC
	// first, then prove the leftovers by induction — this avoids paying
	// per-property induction checks at every depth for properties that
	// are about to produce witnesses anyway. Both phases fan out over the
	// worker pool: the witness hunt runs property groups, each on one
	// shared unrolling, and the induction follow-ups are independent
	// bmc.Check runs.
	// On the expanded netlist (no memories left) the EMM engines are plain
	// BMC and bmc1.
	runBoth := func(n *aig.Netlist) (wit, proofs, other, maxDepth int, sec, mb float64, timedOut bool) {
		t0 := time.Now()
		props := f.PropIndices()
		mr := bmc.CheckManyParallel(n, props, cfg.apply(bmc.Options{
			Engine: bmc.EngineBMC2, MaxDepth: 3*fcfg.LineWidth + 10,
		}), cfg.Jobs)
		mb = mr.Stats.PeakHeapMB
		var leftovers []int
		for pi, r := range mr.Results {
			switch r.Kind {
			case bmc.KindCE:
				wit++
				if r.Depth > maxDepth {
					maxDepth = r.Depth
				}
			case bmc.KindTimeout:
				other++
				timedOut = true
			default:
				// No witness within the bound: try induction.
				leftovers = append(leftovers, props[pi])
			}
		}
		kinds := make([]bmc.Kind, len(leftovers))
		par.ForEach(context.Background(), cfg.Jobs, len(leftovers), func(_ context.Context, _, li int) {
			pr := bmc.Check(n, leftovers[li], cfg.apply(bmc.Options{Engine: bmc.EngineBMC3, MaxDepth: 10}))
			kinds[li] = pr.Kind
		})
		for _, k := range kinds {
			if k == bmc.KindProof {
				proofs++
			} else {
				other++
				if k == bmc.KindTimeout {
					timedOut = true
				}
			}
		}
		sec = time.Since(t0).Seconds()
		return
	}

	cfg.logf("industry1: EMM over %d properties ...", fcfg.NumProps)
	res.EMMWitnesses, res.EMMProofs, res.EMMOther, res.EMMMaxDepth, res.EMMSec, res.EMMMB, _ =
		runBoth(f.Netlist())

	cfg.logf("industry1: Explicit over %d properties ...", fcfg.NumProps)
	exp := mustExpand(f.Netlist())
	res.ExplWitnesses, res.ExplProofs, res.ExplOther, _, res.ExplSec, res.ExplMB, res.ExplTO =
		runBoth(exp)
	return res
}

// RenderIndustry1 prints the narrative comparison.
func RenderIndustry1(r *I1Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Industry I (low-pass image filter, %d reachability properties)\n", r.Props)
	fmt.Fprintf(&b, "| Engine | Witnesses | Max depth | Induction proofs | Unresolved | sec | MB |\n")
	fmt.Fprintf(&b, "|--------|-----------|-----------|------------------|------------|-----|----|\n")
	fmt.Fprintf(&b, "| EMM | %d | %d | %d | %d | %s | %s |\n",
		r.EMMWitnesses, r.EMMMaxDepth, r.EMMProofs, r.EMMOther,
		fmtDur(durOf(r.EMMSec), false), fmtMB(r.EMMMB, false))
	fmt.Fprintf(&b, "| Explicit | %d | - | %d | %d | %s | %s |\n",
		r.ExplWitnesses, r.ExplProofs, r.ExplOther,
		fmtDur(durOf(r.ExplSec), false), fmtMB(r.ExplMB, false))
	return b.String()
}

// I2Result captures the Industry II (lookup engine) narrative.
type I2Result struct {
	// SpuriousDepth is the depth of the spurious witness when the memory
	// is fully abstracted (paper: 7).
	SpuriousDepth int
	// EMMNoCEDepth is how deep EMM searched without finding a witness
	// (paper: 200), and EMMNoCESec its cost.
	EMMNoCEDepth int
	EMMNoCESec   float64
	// Invariant proof (backward induction; paper: depth 2, <1s via EMM,
	// 78s explicit).
	InvDepth   int
	InvSec     float64
	InvExplSec float64
	InvExplTO  bool
	// RD=0 abstraction: all reachability properties proved.
	RDZeroProofs int
	RDZeroSec    float64
	// BDD engine on the explicit model (paper: could not build the
	// transition relation).
	BDDBlewUp bool
}

// lookupConfig picks the design parameters for the scale.
func (c Config) lookupConfig() designs.LookupConfig {
	if c.Scale == ScalePaper {
		return designs.DefaultLookup()
	}
	return designs.LookupConfig{AW: 4, DW: 6, NumProps: 8, Latency: 6}
}

// Industry2 reproduces the Industry II case study flow.
func Industry2(cfg Config) *I2Result {
	lcfg := cfg.lookupConfig()
	res := &I2Result{}

	// (a) Full memory abstraction: spurious witnesses at shallow depth.
	cfg.logf("industry2: full-abstraction spurious CE ...")
	l := designs.NewLookup(lcfg)
	r := bmc.Check(l.Netlist(), l.ReachIndices[0], cfg.apply(bmc.Options{MaxDepth: 20}))
	if r.Kind == bmc.KindCE {
		res.SpuriousDepth = r.Depth
	}

	// (b) EMM: no witnesses up to a deep bound. The per-property searches
	// are independent; a found witness cancels the rest of the sweep.
	depth := 200
	if cfg.Scale == ScaleReduced {
		depth = 50
	}
	cfg.logf("industry2: EMM search to depth %d ...", depth)
	t0 := time.Now()
	var foundCE atomic.Bool
	sweepCtx, cancelSweep := context.WithCancel(context.Background())
	par.ForEach(sweepCtx, cfg.Jobs, len(l.ReachIndices), func(ctx context.Context, _, i int) {
		rr := bmc.CheckCtx(ctx, l.Netlist(), l.ReachIndices[i], cfg.apply(bmc.Options{
			Engine: bmc.EngineBMC2, MaxDepth: depth,
		}))
		if rr.Kind == bmc.KindCE {
			foundCE.Store(true)
			cancelSweep()
		}
	})
	cancelSweep()
	if foundCE.Load() {
		res.EMMNoCEDepth = -1
	} else {
		res.EMMNoCEDepth = depth
	}
	res.EMMNoCESec = time.Since(t0).Seconds()

	// (c) The invariant G(WE=0 ∨ WD=0) by backward induction.
	cfg.logf("industry2: invariant proof ...")
	// Passes pinned off: the pipeline's constant sweep proves the dead
	// privilege chain constant and discharges the invariant at depth 0,
	// but the number this experiment replicates is the 2-induction depth
	// on the unreduced design.
	ir := bmc.Check(l.Netlist(), l.InvariantIndex, cfg.apply(bmc.Options{
		Engine: bmc.EngineBMC3, MaxDepth: 20, Passes: "none",
	}))
	if ir.Kind == bmc.KindProof {
		res.InvDepth = ir.Depth
		res.InvSec = ir.Stats.Elapsed.Seconds()
	}
	exp := mustExpand(l.Netlist())
	ier := bmc.Check(exp, l.InvariantIndex, cfg.apply(bmc.Options{Engine: bmc.EngineBMC1, MaxDepth: 20}))
	res.InvExplSec = ier.Stats.Elapsed.Seconds()
	res.InvExplTO = ier.Kind == bmc.KindTimeout

	// (d) RD=0 abstraction + PBA: prove every reachability property. The
	// per-property PBA pipelines are independent runs over the shared
	// read-only constrained netlist.
	cfg.logf("industry2: RD=0 abstraction proofs ...")
	constrained := l.WithRDZeroConstraint()
	t0 = time.Now()
	var rdProofs atomic.Int64
	par.ForEach(context.Background(), cfg.Jobs, len(l.ReachIndices), func(_ context.Context, _, i int) {
		pr := bmc.ProveWithPBA(constrained, l.ReachIndices[i], cfg.apply(bmc.Options{
			Engine: bmc.EngineBMC1, MaxDepth: 30, StabilityDepth: 5,
		}))
		if pr.Kind() == bmc.KindProof {
			rdProofs.Add(1)
		}
	})
	res.RDZeroProofs = int(rdProofs.Load())
	res.RDZeroSec = time.Since(t0).Seconds()

	// (e) The BDD model checker on the explicit model.
	cfg.logf("industry2: BDD engine on explicit model ...")
	budget := 200000
	mc, err := bdd.CheckSafety(exp, l.ReachIndices[0], budget)
	res.BDDBlewUp = err == nil && mc.Kind == bdd.MCBlowup
	return res
}

// RenderIndustry2 prints the narrative.
func RenderIndustry2(r *I2Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Industry II (multi-port lookup engine, 1W+3R memory)\n")
	fmt.Fprintf(&b, "- full memory abstraction: spurious witness at depth %d\n", r.SpuriousDepth)
	fmt.Fprintf(&b, "- EMM: no witness for any property up to depth %d (%s)\n",
		r.EMMNoCEDepth, fmtDur(durOf(r.EMMNoCESec), false))
	fmt.Fprintf(&b, "- invariant G(WE=0 ∨ WD=0): backward induction depth %d in %s (explicit: %s)\n",
		r.InvDepth, fmtDur(durOf(r.InvSec), false), fmtDur(durOf(r.InvExplSec), r.InvExplTO))
	fmt.Fprintf(&b, "- RD=0 abstraction + PBA: %d/8 properties proved in %s\n",
		r.RDZeroProofs, fmtDur(durOf(r.RDZeroSec), false))
	fmt.Fprintf(&b, "- BDD model checker on the explicit model: blowup=%v\n", r.BDDBlewUp)
	return b.String()
}
