package bmc

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"emmver/internal/aig"
	"emmver/internal/designs"
	"emmver/internal/sharenet"
)

// runDistFleet spins up a loopback fleet — broker on a unix socket, workers
// CheckDist goroutines dialing it — and returns the per-worker results and
// errors (indexed by broker-assigned worker id). kill >= 0 severs that
// worker's link 25ms into its run, simulating a crash. A watchdog fails the
// test rather than letting a protocol bug hang the suite.
func runDistFleet(t *testing.T, n *aig.Netlist, prop int, opt Options, workers, kill int) ([]*Result, []error) {
	t.Helper()
	return runDistFleetCtx(t, context.Background(), n, prop, opt, workers, kill)
}

// runDistFleetCtx is runDistFleet with every worker running under ctx.
func runDistFleetCtx(t *testing.T, ctx context.Context, n *aig.Netlist, prop int, opt Options, workers, kill int) ([]*Result, []error) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "fleet.sock")
	br, err := sharenet.Listen("unix", sock, sharenet.BrokerOptions{Workers: workers})
	if err != nil {
		t.Fatalf("broker: %v", err)
	}
	defer br.Close()

	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			maxDepth, proofs := DistWorkerHello(opt)
			cl, err := sharenet.Dial("unix", sock, sharenet.ClientOptions{MaxDepth: maxDepth, Proofs: proofs})
			if err != nil {
				errs[w] = err
				return
			}
			defer cl.Close()
			id := cl.WorkerID()
			if id == kill {
				timer := time.AfterFunc(25*time.Millisecond, cl.Kill)
				defer timer.Stop()
			}
			results[id], errs[id] = CheckDistCtx(ctx, n, prop, opt, cl)
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("distributed fleet hung")
	}
	return results, errs
}

// assertDistParity checks every worker's result against the sequential
// baseline: identical Kind/Depth/ProofSide everywhere, and on a CE at least
// one worker (the finder) carries a witness of the baseline length while
// the others report the bare verdict.
func assertDistParity(t *testing.T, name string, base *Result, results []*Result, errs []error) {
	t.Helper()
	witnesses := 0
	for w, r := range results {
		if errs[w] != nil {
			t.Fatalf("%s: worker %d: %v", name, w, errs[w])
		}
		if r == nil {
			t.Fatalf("%s: worker %d returned no result", name, w)
		}
		if r.Kind != base.Kind || r.Depth != base.Depth || r.ProofSide != base.ProofSide {
			t.Fatalf("%s: worker %d got %v depth %d (%s), baseline %v depth %d (%s)",
				name, w, r.Kind, r.Depth, r.ProofSide, base.Kind, base.Depth, base.ProofSide)
		}
		if r.Witness != nil {
			witnesses++
			if base.Witness == nil {
				t.Fatalf("%s: worker %d produced a witness on a %v verdict", name, w, base.Kind)
			}
			if r.Witness.Length != base.Witness.Length {
				t.Fatalf("%s: worker %d witness length %d, baseline %d",
					name, w, r.Witness.Length, base.Witness.Length)
			}
		}
	}
	if base.Witness != nil && witnesses == 0 {
		t.Fatalf("%s: no worker carried the counter-example witness", name)
	}
}

// TestDistVerdictParity runs a two-process-shaped fleet (two engines over a
// real unix socket) on the CE, NO_CE, and proof workloads and checks every
// worker reports exactly the sequential verdict.
func TestDistVerdictParity(t *testing.T) {
	qs := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 3, DataW: 4, StackAW: 3})

	cases := []struct {
		name string
		prop int
		opt  Options
	}{
		{"quicksort/ce", qs.P1Index, BMC2(8)},
		{"quicksort/no-ce", qs.P1Index, BMC2(3)},
		{"quicksort/proof", qs.P2Index, Options{MaxDepth: 14, UseEMM: true, Proofs: true}},
	}
	for _, tc := range cases {
		tc.opt.ValidateWitness = true
		tc.opt.Share = true
		base := Check(qs.Netlist(), tc.prop, tc.opt)
		results, errs := runDistFleet(t, qs.Netlist(), tc.prop, tc.opt, 2, -1)
		assertDistParity(t, tc.name, base, results, errs)
	}
}

// TestDistSplitParity forces the conflict budget down so leased cubes split
// at the broker, and checks the refined partition still reaches the
// sequential verdict.
func TestDistSplitParity(t *testing.T) {
	old := cubeConflictBudget
	cubeConflictBudget = 1
	defer func() { cubeConflictBudget = old }()

	qs := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 3, DataW: 4, StackAW: 3})
	opt := BMC2(6)
	opt.ValidateWitness = true
	opt.Share = true
	base := Check(qs.Netlist(), qs.P1Index, opt)
	results, errs := runDistFleet(t, qs.Netlist(), qs.P1Index, opt, 2, -1)
	assertDistParity(t, "split-parity", base, results, errs)
}

// TestDistWorkerDeath kills one worker of three mid-solve and requires the
// survivors to neither hang nor change the verdict — the broker requeues the
// dead worker's leases on disconnect. The budget is forced down so the run
// is long enough for the kill to land mid-protocol.
func TestDistWorkerDeath(t *testing.T) {
	old := cubeConflictBudget
	cubeConflictBudget = 1
	defer func() { cubeConflictBudget = old }()

	qs := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 3, DataW: 4, StackAW: 3})
	opt := BMC2(6)
	opt.ValidateWitness = true
	opt.Share = true
	base := Check(qs.Netlist(), qs.P1Index, opt)
	results, errs := runDistFleet(t, qs.Netlist(), qs.P1Index, opt, 3, 1)

	survivors := 0
	for w, r := range results {
		if w == 1 {
			// The killed worker may have finished before the kill landed or
			// died partway; either way it must not report a wrong verdict.
			if errs[w] == nil && r != nil && r.Kind != base.Kind && r.Kind != KindTimeout {
				t.Fatalf("killed worker reported %v, baseline %v", r.Kind, base.Kind)
			}
			continue
		}
		if errs[w] != nil {
			t.Fatalf("surviving worker %d: %v", w, errs[w])
		}
		if r == nil {
			t.Fatalf("surviving worker %d returned no result", w)
		}
		if r.Kind != base.Kind || r.Depth != base.Depth {
			t.Fatalf("surviving worker %d got %v depth %d, baseline %v depth %d",
				w, r.Kind, r.Depth, base.Kind, base.Depth)
		}
		survivors++
	}
	if survivors != 2 {
		t.Fatalf("expected 2 surviving workers, got %d", survivors)
	}
}

// TestDistEligibleGate pins the soundness gate: PBA runs and constrained
// designs must be rejected before any socket traffic happens.
func TestDistEligibleGate(t *testing.T) {
	qs := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 3, DataW: 4, StackAW: 3})
	if _, err := CheckDist(qs.Netlist(), qs.P2Index, BMC3(4), nil); err == nil {
		t.Fatal("PBA run was not rejected")
	}

	counter := mod5Counter(3)
	constrained := *counter.N
	constrained.Constraints = []aig.Lit{aig.True}
	opt := Options{MaxDepth: 4}
	opt.Passes = "none" // keep the constraint from being swept before the gate
	if _, err := CheckDist(&constrained, 0, opt, nil); err == nil {
		t.Fatal("constrained design was not rejected")
	}
}
