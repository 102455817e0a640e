package bmc

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"emmver/internal/designs"
	"emmver/internal/obs"
	"emmver/internal/sat"
)

// Once a group has published its first forward-UNSAT depth, the shared
// oracle answers every forward check without a solver call: UNSAT at or
// above the published depth, SAT below it. Each such answer counts once on
// the registry's bmc.fwd_oracle_hits.
func TestOracleForwardCheckAnswersFromPublishedDepth(t *testing.T) {
	m, _ := manyCounter()
	reg := obs.NewRegistry()
	e := newEngine(context.Background(), m.N, 5,
		Options{Engine: EngineBMC3, MaxDepth: 12, Obs: obs.New(reg, nil)})
	var fwd atomic.Int64
	const published = 6
	fwd.Store(published)
	for i := 0; i <= 12; i++ {
		want := sat.Sat
		if i >= published {
			want = sat.Unsat
		}
		if got := e.oracleForwardCheck(i, &fwd); got != want {
			t.Fatalf("depth %d: %v, want %v", i, got, want)
		}
	}
	if n := e.solveCalls.Load(); n != 0 {
		t.Fatalf("oracle answers made %d solver calls, want 0", n)
	}
	if got := fwd.Load(); got != published {
		t.Fatalf("oracle answers moved the published depth to %d", got)
	}
	if got := reg.Counter(obs.MFwdOracleHits).Value(); got != 13 {
		t.Fatalf("%s = %d, want 13 (depths 0..12)", obs.MFwdOracleHits, got)
	}
}

// casMin keeps the smallest value any publisher offered, however the
// publishers interleave.
func TestCasMinConcurrentPublishers(t *testing.T) {
	for round := 0; round < 20; round++ {
		var a atomic.Int64
		a.Store(math.MaxInt64)
		rng := rand.New(rand.NewSource(int64(round)))
		vals := make([][]int64, 4)
		want := int64(math.MaxInt64)
		for g := range vals {
			for k := 0; k < 500; k++ {
				v := rng.Int63n(1 << 20)
				vals[g] = append(vals[g], v)
				want = min(want, v)
			}
		}
		var wg sync.WaitGroup
		for _, vs := range vals {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, v := range vs {
					casMin(&a, v)
				}
			}()
		}
		wg.Wait()
		if got := a.Load(); got != want {
			t.Fatalf("round %d: casMin kept %d, minimum published %d", round, got, want)
		}
	}
}

// Quicksort P1 and P2 under bmc3 in two property groups both prove
// forward, so the group that proves second reaches its proof depth
// through the other's published forward-UNSAT depth. The verdicts must be
// those of the one-group run.
func TestCheckManyParallelForwardOracleQuicksort(t *testing.T) {
	if testing.Short() {
		t.Skip("two quicksort proofs")
	}
	q := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 4, DataW: 8, StackAW: 4})
	props := []int{q.P1Index, q.P2Index}
	opt := Options{Engine: EngineBMC3, MaxDepth: 40}
	seq := CheckManyParallel(q.Netlist(), props, opt, 1)
	for _, r := range seq.Results {
		if r.Kind != KindProof || r.ProofSide != "forward" {
			t.Fatalf("one group: %v (%s), want a forward proof", r, r.ProofSide)
		}
	}
	assertSameVerdicts(t, seq, CheckManyParallel(q.Netlist(), props, opt, 2))
}
