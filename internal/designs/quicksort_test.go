package designs

import (
	"math/rand"
	"testing"

	"emmver/internal/bmc"
	"emmver/internal/expmem"
)

// tinyQS is a configuration small enough for the explicit baseline.
func tinyQS(n int) QuickSortConfig {
	return QuickSortConfig{N: n, ArrayAW: 2, DataW: 3, StackAW: 2}
}

func TestQuickSortSimulatesCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, cfg := range []QuickSortConfig{
		tinyQS(2), tinyQS(3), tinyQS(4),
		{N: 5, ArrayAW: 3, DataW: 4, StackAW: 3},
		{N: 7, ArrayAW: 3, DataW: 8, StackAW: 3},
	} {
		q := NewQuickSort(cfg)
		for trial := 0; trial < 20; trial++ {
			in := make([]uint64, cfg.N)
			mask := uint64(1)<<uint(cfg.DataW) - 1
			for i := range in {
				in[i] = rng.Uint64() & mask
			}
			got, cycles, err := q.SimulateSort(in, 5000)
			if err != nil {
				t.Fatalf("cfg %+v input %v: %v", cfg, in, err)
			}
			want := ReferenceSort(in)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cfg %+v input %v: got %v want %v", cfg, in, got, want)
				}
			}
			if cycles < cfg.N {
				t.Fatalf("suspiciously fast sort: %d cycles", cycles)
			}
			// A fresh simulation run requires a fresh design state;
			// rebuild for the next trial.
			q = NewQuickSort(cfg)
		}
	}
}

func TestQuickSortHandlesDuplicatesAndSorted(t *testing.T) {
	cfg := tinyQS(4)
	for _, in := range [][]uint64{
		{0, 0, 0, 0},
		{1, 1, 2, 2},
		{0, 1, 2, 3},
		{3, 2, 1, 0},
		{7, 7, 7, 0},
	} {
		q := NewQuickSort(cfg)
		got, _, err := q.SimulateSort(in, 5000)
		if err != nil {
			t.Fatalf("input %v: %v", in, err)
		}
		want := ReferenceSort(in)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("input %v: got %v want %v", in, got, want)
			}
		}
	}
}

func TestQuickSortBuggySimulation(t *testing.T) {
	cfg := tinyQS(3)
	cfg.Buggy = true
	q := NewQuickSort(cfg)
	got, _, err := q.SimulateSort([]uint64{1, 5, 3}, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] <= got[1] {
		t.Fatalf("buggy machine unexpectedly sorted ascending: %v", got)
	}
}

func TestQuickSortCyclesGrowWithN(t *testing.T) {
	cycles := func(n int) int {
		cfg := QuickSortConfig{N: n, ArrayAW: 3, DataW: 4, StackAW: 3}
		q := NewQuickSort(cfg)
		in := make([]uint64, n)
		for i := range in {
			in[i] = uint64(n - i)
		}
		_, c, err := q.SimulateSort(in, 5000)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c3, c5, c7 := cycles(3), cycles(5), cycles(7)
	if !(c3 < c5 && c5 < c7) {
		t.Fatalf("cycle counts must grow with N: %d %d %d", c3, c5, c7)
	}
}

func TestQuickSortP1ProofEMM(t *testing.T) {
	q := NewQuickSort(tinyQS(3))
	r := bmc.Check(q.Netlist(), q.P1Index, bmc.Options{Engine: bmc.EngineBMC3, MaxDepth: 120})
	if r.Kind != bmc.KindProof {
		t.Fatalf("P1 must be proved, got %v", r)
	}
	if r.Depth < 3 {
		t.Fatalf("proof depth suspiciously small: %d", r.Depth)
	}
}

func TestQuickSortP2ProofEMM(t *testing.T) {
	q := NewQuickSort(tinyQS(3))
	r := bmc.Check(q.Netlist(), q.P2Index, bmc.Options{Engine: bmc.EngineBMC3, MaxDepth: 120})
	if r.Kind != bmc.KindProof {
		t.Fatalf("P2 must be proved, got %v", r)
	}
}

func TestQuickSortP1ProofExplicit(t *testing.T) {
	q := NewQuickSort(tinyQS(2))
	exp, _, err := expmem.Expand(q.Netlist())
	if err != nil {
		t.Fatal(err)
	}
	r := bmc.Check(exp, q.P1Index, bmc.Options{Engine: bmc.EngineBMC1, MaxDepth: 60})
	if r.Kind != bmc.KindProof {
		t.Fatalf("explicit P1 must be proved, got %v", r)
	}
}

func TestQuickSortBuggyP1CounterExample(t *testing.T) {
	cfg := tinyQS(3)
	cfg.Buggy = true
	q := NewQuickSort(cfg)
	r := bmc.Check(q.Netlist(), q.P1Index, bmc.Options{
		Engine:   bmc.EngineBMC2,
		MaxDepth: 80, ValidateWitness: true,
	})
	if r.Kind != bmc.KindCE {
		t.Fatalf("buggy P1 must have a counter-example, got %v", r)
	}
}

func TestQuickSortPBADropsArrayForP2(t *testing.T) {
	q := NewQuickSort(tinyQS(3))
	opt := bmc.Options{Engine: bmc.EngineBMC2, MaxDepth: 120, StabilityDepth: 8}
	res := bmc.ProveWithPBA(q.Netlist(), q.P2Index, opt)
	if res.Kind() != bmc.KindProof {
		t.Fatalf("P2 must be proved through PBA, got %v (phase1 %v)", res.Kind(), res.Phase1)
	}
	if res.Abs == nil {
		t.Fatalf("no abstraction")
	}
	// Memory 0 is the array: P2 does not depend on it.
	if res.Abs.MemEnabled[0] {
		t.Fatalf("array memory should be abstracted away for P2: %s", res.Abs)
	}
	// Memory 1 is the stack: P2 depends on it.
	if !res.Abs.MemEnabled[1] {
		t.Fatalf("stack memory must be kept for P2: %s", res.Abs)
	}
	if res.Abs.KeptLatches >= res.Abs.KeptLatches+len(res.Abs.FreeLatches) {
		t.Fatalf("no latch reduction")
	}
}

func TestQuickSortConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("N too large must panic")
		}
	}()
	NewQuickSort(QuickSortConfig{N: 100, ArrayAW: 2, DataW: 2, StackAW: 2})
}

func TestDefaultQuickSortMatchesPaper(t *testing.T) {
	cfg := DefaultQuickSort(4)
	if cfg.ArrayAW != 10 || cfg.DataW != 32 || cfg.StackAW != 10 || cfg.N != 4 {
		t.Fatalf("default config diverges from the paper: %+v", cfg)
	}
	q := NewQuickSort(cfg)
	st := q.Netlist().Stats()
	// The paper reports ~200 latches (excluding memory registers).
	if st.Latches < 100 || st.Latches > 400 {
		t.Fatalf("latch count %d far from the paper's ~200", st.Latches)
	}
	if st.Memories != 2 {
		t.Fatalf("expected 2 memories")
	}
}
