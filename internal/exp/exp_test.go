package exp

import (
	"strings"
	"testing"
	"time"

	"emmver/internal/bmc"
)

func TestTable1Reduced(t *testing.T) {
	cfg := DefaultConfig(60 * time.Second)
	rows := Table1(cfg, []int{3})
	if len(rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(rows))
	}
	// The reduced N=3 quicksort proves P1 at depth 27 and P2 at 28, and the
	// Explicit baseline (BMC-1 on the expanded memory) proves too.
	wantD := map[string]int{"P1": 27, "P2": 28}
	for _, r := range rows {
		if r.EMMKind != bmc.KindProof {
			t.Fatalf("N=%d %s: EMM must prove, got %v", r.N, r.Prop, r.EMMKind)
		}
		if r.D != wantD[r.Prop] {
			t.Fatalf("N=%d %s: proof depth %d, want %d", r.N, r.Prop, r.D, wantD[r.Prop])
		}
		if r.ExplKind != bmc.KindProof {
			t.Fatalf("N=%d %s: Explicit must prove, got %v", r.N, r.Prop, r.ExplKind)
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "| 3 | P1 |") {
		t.Fatalf("render wrong:\n%s", out)
	}
}

func TestTable2Reduced(t *testing.T) {
	cfg := DefaultConfig(60 * time.Second)
	rows := Table2(cfg, []int{3})
	if len(rows) != 1 {
		t.Fatalf("expected 1 row")
	}
	r := rows[0]
	if r.EMMKind != bmc.KindProof {
		t.Fatalf("EMM+PBA must prove P2, got %v", r.EMMKind)
	}
	if r.EMMArray {
		t.Fatalf("array memory must be abstracted away for P2")
	}
	if r.EMMKeptFF == 0 || r.EMMKeptFF >= r.EMMOrigFF {
		t.Fatalf("no latch reduction: %d (%d)", r.EMMKeptFF, r.EMMOrigFF)
	}
	out := RenderTable2(rows)
	if !strings.Contains(out, "Table 2") {
		t.Fatalf("render wrong:\n%s", out)
	}
}

func TestIndustry1Reduced(t *testing.T) {
	cfg := DefaultConfig(120 * time.Second)
	r := Industry1(cfg)
	if r.EMMWitnesses == 0 || r.EMMProofs == 0 {
		t.Fatalf("expected both witnesses and proofs: %+v", r)
	}
	if r.EMMOther != 0 {
		t.Fatalf("EMM left %d properties unresolved", r.EMMOther)
	}
	if r.EMMWitnesses+r.EMMProofs != r.Props {
		t.Fatalf("property accounting wrong")
	}
	// The reachable/unreachable split must match the filter's bound:
	// for DW=4 the bound is 11, so 12 witnesses and 4 proofs of 16.
	if r.EMMWitnesses != 12 || r.EMMProofs != 4 {
		t.Fatalf("split %d/%d, want 12/4", r.EMMWitnesses, r.EMMProofs)
	}
	if RenderIndustry1(r) == "" {
		t.Fatalf("empty render")
	}
}

func TestIndustry2Reduced(t *testing.T) {
	cfg := DefaultConfig(120 * time.Second)
	r := Industry2(cfg)
	if r.SpuriousDepth != 7 {
		t.Fatalf("spurious depth %d, want 7", r.SpuriousDepth)
	}
	if r.EMMNoCEDepth != 50 {
		t.Fatalf("EMM search depth %d, want 50 (no CE)", r.EMMNoCEDepth)
	}
	if r.InvDepth != 2 {
		t.Fatalf("invariant induction depth %d, want 2", r.InvDepth)
	}
	if r.RDZeroProofs != 8 {
		t.Fatalf("RD=0 proofs %d, want 8", r.RDZeroProofs)
	}
	if !r.BDDBlewUp {
		t.Fatalf("BDD engine should blow up on the explicit model")
	}
	if RenderIndustry2(r) == "" {
		t.Fatalf("empty render")
	}
}

func TestGrowthMatchesClosedForms(t *testing.T) {
	for _, gc := range []GrowthConfig{
		{AW: 10, DW: 32, Writes: 1, Reads: 1, MaxK: 40, Step: 10},
		{AW: 12, DW: 32, Writes: 1, Reads: 3, MaxK: 20, Step: 5},
		{AW: 6, DW: 8, Writes: 2, Reads: 2, MaxK: 20, Step: 5},
	} {
		pts := Growth(gc)
		for _, p := range pts {
			if !p.Match {
				t.Fatalf("cfg %+v depth %d: measured %d/%d vs predicted %d/%d",
					gc, p.Depth, p.Clauses, p.Gates, p.PredClauses, p.PredGates)
			}
		}
		// Quadratic growth: the last point must dominate a linear
		// extrapolation of the first nonzero one.
		if len(pts) >= 3 {
			p1, pl := pts[1], pts[len(pts)-1]
			ratio := float64(pl.Clauses) / float64(p1.Clauses)
			depthRatio := float64(pl.Depth) / float64(p1.Depth)
			if ratio < depthRatio*1.5 {
				t.Fatalf("growth not superlinear: %v", pts)
			}
		}
		if RenderGrowth(pts) == "" {
			t.Fatalf("empty render")
		}
	}
}

func TestScaleAndConfigHelpers(t *testing.T) {
	if ScalePaper.String() != "paper" || ScaleReduced.String() != "reduced" {
		t.Fatalf("scale names wrong")
	}
	c := Config{Scale: ScalePaper}
	if c.quickSortConfig(4).ArrayAW != 10 {
		t.Fatalf("paper scale must use AW=10")
	}
	if c.filterConfig().NumProps != 216 {
		t.Fatalf("paper scale must use 216 properties")
	}
	if c.lookupConfig().AW != 12 {
		t.Fatalf("paper scale must use AW=12")
	}
	rc := Config{Scale: ScaleReduced}
	if rc.quickSortConfig(3).ArrayAW >= 10 {
		t.Fatalf("reduced scale must shrink AW")
	}
}
