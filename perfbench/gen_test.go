package main

import (
	"context"
	"strings"
	"testing"

	"emmver/internal/bmc"
	"emmver/internal/btor2"
	"emmver/internal/pass"
	"emmver/internal/serve"
	"emmver/internal/spec"
)

// The tests below check the generators' known answers with the engine.
// The benchmark itself never does: it checks the engine against these
// answers.

func TestQsortKnownAnswerIsProof(t *testing.T) {
	if testing.Short() {
		t.Skip("BMC-3 proofs take seconds")
	}
	for seed := int64(0); seed < 2; seed++ {
		src := qsortBtor(seededRNG(seed, "qsort", 0), qsortConfigBench)
		n, err := btor2.Read(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		opt, err := spec.Default().Options()
		if err != nil {
			t.Fatal(err)
		}
		mr := bmc.CheckManyParallel(n, []int{0, 1}, opt, 2)
		for i, r := range mr.Results {
			if r.Kind.String() != answerProof {
				t.Errorf("seed %d property %d: %v, want %s", seed, i, r, answerProof)
			}
		}
	}
}

func TestGrowthKnownAnswerIsNoCE(t *testing.T) {
	for k, g := range growthShapes {
		src := growthBtor(seededRNG(7, "growth", k), g.shape, nil, bulkFood{})
		n, err := btor2.Read(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		r, err := growthSpec(8).RunCtx(context.Background(), n, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Kind.String() != answerNoCE || r.Depth != 8 {
			t.Errorf("shape %v: %v, want %s at depth 8", g.shape, r, answerNoCE)
		}
	}
}

// The planted bug fires at exactly depth K in both formats, and the
// witness replays on the concrete simulator.
func TestPlantedBugKnownAnswerIsCEAtK(t *testing.T) {
	sh := growthShape{AW: 5, DW: 4, R: 2, W: 1}
	const k = 5
	for _, format := range []string{"btor2", "verilog"} {
		bug := &plantedBug{K: k, Mask: 9}
		var src string
		if format == "btor2" {
			src = growthBtor(seededRNG(3, format, 0), sh, bug, bulkFood{COI: 1, Sweep: 1})
		} else {
			src = growthVerilog(seededRNG(3, format, 0), sh, bug, bulkFood{COI: 1, Sweep: 1})
		}
		n, err := parseSource(format, src)
		if err != nil {
			t.Fatalf("%s: %v\n%s", format, err, src)
		}
		r, err := growthSpec(k-1).RunCtx(context.Background(), n, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Kind.String() != answerNoCE {
			t.Errorf("%s below K: %v, want %s", format, r, answerNoCE)
		}
		r, err = growthSpec(k+2).RunCtx(context.Background(), n, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Kind.String() != answerCE || r.Depth != k {
			t.Fatalf("%s: %v, want %s at depth %d", format, r, answerCE, k)
		}
		if err := r.Witness.Replay(n, 0); err != nil {
			t.Errorf("%s: witness does not replay: %v", format, err)
		}
	}
}

// A round's near variants (renamed, re-salted, other format) compile to
// the design's netlist, so the server answers them from the cache; a
// different mask is a different netlist, so every round is first seen
// cold.
func TestRoundVariantsShareOneNetlist(t *testing.T) {
	key := func(format, src string) string {
		n, err := parseSource(format, src)
		if err != nil {
			t.Fatal(err)
		}
		c, err := pass.Compile(n, []int{0}, pass.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return serve.NetlistKey(c.N, c.Props)
	}
	seen := map[string]bool{}
	for idx := 0; idx < 4; idx++ {
		rd := makeRound(11, idx, uint64(idx+1))
		k := key(rd.format, rd.src)
		for _, v := range rd.near {
			if v.src == rd.src {
				t.Fatalf("round %d: near variant is byte-identical", idx)
			}
			if got := key(v.format, v.src); got != k {
				t.Errorf("round %d: %s near variant compiles to another netlist", idx, v.format)
			}
		}
		if seen[k] {
			t.Errorf("round %d repeats an earlier round's netlist", idx)
		}
		seen[k] = true
	}
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	a := qsortBtor(seededRNG(5, "qsort", 2), qsortConfigBench)
	b := qsortBtor(seededRNG(5, "qsort", 2), qsortConfigBench)
	c := qsortBtor(seededRNG(6, "qsort", 2), qsortConfigBench)
	if a != b {
		t.Error("same seed, different text")
	}
	if a == c {
		t.Error("different seeds, same text")
	}
	if makeRound(5, 3, 7).src != makeRound(5, 3, 7).src {
		t.Error("same seed, different serve round")
	}
}

// Every client gets rounds, every round index names a mask of its own, and
// index 0 stays reserved for the warm-up round, whatever the CPU count.
func TestRoundIndicesStayInMaskSpace(t *testing.T) {
	masks := 1<<serveShape.AW - 1
	for clients := 1; clients <= 63; clients++ {
		seen := map[int]bool{}
		for c, idxs := range roundIndices(clients) {
			if len(idxs) < 4 {
				t.Fatalf("clients=%d: client %d has %d rounds", clients, c, len(idxs))
			}
			for _, i := range idxs {
				if i < 1 || i >= masks || seen[i] {
					t.Fatalf("clients=%d: round index %d out of range or repeated", clients, i)
				}
				seen[i] = true
			}
		}
	}
}
