package bmc

import (
	"context"

	"emmver/internal/aig"
)

// ManyResult reports the per-property outcomes of a CheckMany run plus the
// shared statistics, mirroring how the Industry I case study reports "206
// witnesses in 400s, 10 induction proofs in <1s".
type ManyResult struct {
	Results []*Result // one per property, indexed like props
	Stats   Stats
	// MaxWitnessDepth is the deepest counter-example found.
	MaxWitnessDepth int
	// DepthStats holds the shared engine's per-depth deltas
	// (Options.CollectDepthStats, sequential CheckMany only — the parallel
	// engines interleave depths across workers, so there is no single
	// meaningful per-depth table for them).
	DepthStats []DepthStat
}

// Counts tallies outcomes by kind.
func (m *ManyResult) Counts() map[Kind]int {
	out := make(map[Kind]int)
	for _, r := range m.Results {
		out[r.Kind]++
	}
	return out
}

// CheckMany verifies many reachability properties of one design while
// sharing a single incremental unrolling (and EMM constraint set) across
// all of them. At each depth it runs, per unresolved property, the
// counter-example check; with Proofs enabled it also runs the
// property-independent forward termination check once per depth (which,
// when UNSAT, proves every remaining property at once) and a per-property
// backward induction check.
func CheckMany(n *aig.Netlist, props []int, opt Options) *ManyResult {
	return CheckManyCtx(context.Background(), n, props, opt)
}

// CheckManyCtx is CheckMany under a cancellation context; see CheckCtx.
// The static compile pipeline runs once for the whole property set, so its
// cost is shared the same way the unrolling is. A depth that times out
// ends the run: every property still open reports KindTimeout there.
func CheckManyCtx(ctx context.Context, n *aig.Netlist, props []int, opt Options) *ManyResult {
	c := compileModel(n, props, &opt)
	e := newEngine(ctx, c.n, c.props[0], opt)
	d := newDriver(e, c.props, 0)
	d.run(ctx, &bmcStrategy{e: e, d: d})
	r := d.finish(&Result{})
	out := &ManyResult{Results: d.res, Stats: r.Stats, DepthStats: r.DepthStats}
	out.finish(c, opt)
	return out
}

// finish records the deepest counter-example and translates every result
// back to source coordinates.
func (m *ManyResult) finish(c compiled, opt Options) {
	for pi, r := range m.Results {
		if r.Kind == KindCE && r.Depth > m.MaxWitnessDepth {
			m.MaxWitnessDepth = r.Depth
		}
		m.Results[pi] = c.finish(r, c.srcProps[pi], opt)
	}
}
