package exp

import (
	"fmt"
	"strings"

	"emmver/internal/aig"
	"emmver/internal/core"
	"emmver/internal/rtl"
	"emmver/internal/sat"
	"emmver/internal/unroll"
)

// GrowthPoint is one sample of the constraint-size curve.
type GrowthPoint struct {
	Depth        int
	Clauses      int // EMM clauses per the paper's accounting
	InitClauses  int // eq. 6 initial-state consistency clauses
	Gates        int
	PredClauses  int // closed-form prediction
	PredGates    int
	Match        bool
	ExplicitAnds int // gates of the equivalent explicit memory model
	CNFClauses   int // total CNF clauses emitted (unroller + EMM, incl. eq. 6)
	MemoHits     int // comparators answered from the memo cache
	StrashHits   int // AND gates answered from the strash cache
}

// GrowthConfig selects the memory shape swept by the growth experiment.
type GrowthConfig struct {
	AW, DW int
	Writes int
	Reads  int
	MaxK   int
	Step   int
	// SharedAddr drives every write AND read port from one shared address
	// bus (a common RTL shape: one AGU feeding all ports). The EMM
	// comparators then repeat across ports and depths — the configuration
	// where comparator memoization and strash pay off most.
	SharedAddr bool
	// NoOpt disables structural hashing and comparator memoization, for
	// before/after measurements.
	NoOpt bool
}

// DefaultGrowth matches the single-port configuration discussed in §3.
func DefaultGrowth() GrowthConfig {
	return GrowthConfig{AW: 10, DW: 32, Writes: 1, Reads: 1, MaxK: 60, Step: 10}
}

// Growth measures the EMM constraint counts against the paper's closed
// forms — ((4m+2n+1)kW + 2n+1)·R clauses and 3kWR gates per depth k — and
// reports the cumulative sizes by depth (the quadratic-growth
// "figure-equivalent"). The explicit-model gate count is included for
// comparison: constant per frame but enormous.
func Growth(cfg GrowthConfig) []GrowthPoint {
	build := func() (*rtl.Module, *unroll.Unroller, *core.Generator) {
		m := rtl.NewModule("growth")
		mem := m.Memory("mem", cfg.AW, cfg.DW, aig.MemArbitrary)
		var sharedAddr rtl.Vec
		if cfg.SharedAddr {
			sharedAddr = m.Input("a", cfg.AW)
		}
		addr := func(name string) rtl.Vec {
			if cfg.SharedAddr {
				return sharedAddr
			}
			return m.Input(name, cfg.AW)
		}
		for w := 0; w < cfg.Writes; w++ {
			mem.Write(addr("wa"), m.Input("wd", cfg.DW), m.InputBit("we"))
		}
		for r := 0; r < cfg.Reads; r++ {
			mem.Read(addr("ra"), m.InputBit("re"))
		}
		s := sat.New()
		u := unroll.New(m.N, s, unroll.Initialized)
		u.NoStrash = cfg.NoOpt
		g := core.NewGenerator(u, false)
		if cfg.NoOpt {
			g.DisableComparatorMemo()
		}
		return m, u, g
	}

	// Explicit-model cost: count AND gates of one expanded copy.
	m, _, _ := build()
	explicitAnds := explicitGateCount(m)

	var pts []GrowthPoint
	_, u, g := build()
	for k := 0; k <= cfg.MaxK; k += cfg.Step {
		g.AddUpTo(k)
		sz := g.Sizes()
		sumJ := 0
		for j := 0; j <= k; j++ {
			sumJ += j
		}
		predClauses := ((4*cfg.AW+2*cfg.DW+1)*sumJ*cfg.Writes + (2*cfg.DW+1)*(k+1)) * cfg.Reads
		predGates := 3 * sumJ * cfg.Writes * cfg.Reads
		pts = append(pts, GrowthPoint{
			Depth:        k,
			Clauses:      sz.Clauses(),
			InitClauses:  sz.InitClauses,
			Gates:        sz.Gates,
			PredClauses:  predClauses,
			PredGates:    predGates,
			Match:        sz.Clauses() == predClauses && sz.Gates == predGates,
			ExplicitAnds: explicitAnds,
			CNFClauses:   u.ClausesAdded,
			MemoHits:     sz.CompMemoHits,
			StrashHits:   u.StrashHits,
		})
	}
	return pts
}

func explicitGateCount(m *rtl.Module) int {
	// Avoid importing expmem (cycle-free but heavy at paper scale for
	// AW=10·DW=32: ~hundreds of thousands of gates). The dominant terms:
	// read mux 2·2^AW·DW, write decode/mux ≈ 2^AW·(AW+3·DW·W).
	var total int
	for _, mem := range m.N.Memories {
		words := mem.Words()
		total += words * (mem.AW + 2*mem.DW) // decoder + read or-and tree
		total += words * 3 * mem.DW * len(mem.Writes)
	}
	return total
}

// RenderGrowth prints the curve.
func RenderGrowth(pts []GrowthPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "EMM constraint growth (quadratic in depth) vs closed forms\n")
	fmt.Fprintf(&b, "| k | clauses | predicted | gates | predicted | match | explicit-model gates (const) |\n")
	fmt.Fprintf(&b, "|---|---------|-----------|-------|-----------|-------|------------------------------|\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "| %d | %d | %d | %d | %d | %v | %d |\n",
			p.Depth, p.Clauses, p.PredClauses, p.Gates, p.PredGates, p.Match, p.ExplicitAnds)
	}
	return b.String()
}
