package pass

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"emmver/internal/aig"
)

// sweepNetlist builds a seeded random netlist that mixes the latch shapes
// the constant sweep must tell apart:
//   - a chain c_k..c_0 declared in reverse, c_i.next = c_{i-1} ∧ x, so the
//     fixpoint proves one more stage per round;
//   - a self-loop s.next = s (Init0 or Init1), constant at once;
//   - a mutually dependent pair p.next = q, q.next = p, which is not
//     constant under the rule (each needs the other proven first);
//   - InitX latches, never substituted even with a constant next;
//   - Init1 latches holding 1 through an OR with themselves;
//   - random latches whose next is random logic over all of the above.
//
// A wide netlist has 65–200 latches, more than one 64-latch block of the
// search, and a longer chain declared so that it straddles the first block
// boundary: its later stages sit in block 0, its earlier ones in block 1,
// so every stage block 0 proves needs a proof of block 1 first.
func sweepNetlist(seed int64, wide bool) *aig.Netlist {
	rng := rand.New(rand.NewSource(seed))
	n := aig.New(fmt.Sprintf("sweep%d", seed))
	var pool []aig.Lit
	for i := 0; i < 4+rng.Intn(4); i++ {
		pool = append(pool, n.NewInput(""))
	}
	k := 2 + rng.Intn(5)
	var free []aig.Lit
	newFree := func() {
		l := n.NewLatch(fmt.Sprintf("r%d", len(free)), aig.Init(rng.Intn(3)))
		free = append(free, l)
	}
	if wide {
		k = 8 + rng.Intn(24)
		for len(free) < searchLanes-k/2 {
			newFree()
		}
	}
	// Chain, declared last stage first.
	chain := make([]aig.Lit, k)
	for i := k - 1; i >= 0; i-- {
		chain[i] = n.NewLatch(fmt.Sprintf("c%d", i), aig.Init0)
	}
	n.SetNext(chain[0], chain[0])
	for i := 1; i < k; i++ {
		n.SetNext(chain[i], n.And(chain[i-1], pool[rng.Intn(len(pool))]))
	}

	self := n.NewLatch("s", aig.Init(rng.Intn(2)))
	n.SetNext(self, self)

	p, q := n.NewLatch("p", aig.Init0), n.NewLatch("q", aig.Init0)
	n.SetNext(p, q)
	n.SetNext(q, p)

	x := n.NewLatch("x", aig.InitX)
	n.SetNext(x, aig.False)

	one := n.NewLatch("one", aig.Init1)
	n.SetNext(one, n.Or(one, pool[rng.Intn(len(pool))]))

	pool = append(pool, chain...)
	pool = append(pool, self, p, q, x, one)
	extra, gates := 6+rng.Intn(10), 20+rng.Intn(40)
	if wide {
		extra, gates = rng.Intn(200-len(n.Latches)), 60+rng.Intn(200)
	}
	for i := 0; i < extra; i++ {
		newFree()
	}
	pool = append(pool, free...)
	pick := func() aig.Lit { return pool[rng.Intn(len(pool))].XorInv(rng.Intn(2) == 0) }
	for i := 0; i < gates; i++ {
		pool = append(pool, n.And(pick(), pick()))
	}
	for _, l := range free {
		n.SetNext(l, pick())
	}
	n.AddProperty("p", pick())
	return n
}

// latchConst converts a node-indexed substitution to a latch node ->
// constant literal map, the form of the reference.
func latchConst(n *aig.Netlist, sub []tv) map[aig.NodeID]aig.Lit {
	out := make(map[aig.NodeID]aig.Lit)
	for _, l := range n.Latches {
		if v := sub[l.Node]; v != unknown {
			out[l.Node] = aig.False.XorInv(v == trueV)
		}
	}
	return out
}

// TestConstSweepMatchesReference pins the bit-parallel search to the
// map-based reference on seeded random netlists: identical substitutions,
// on netlists within one 64-latch block and on wide ones across several.
func TestConstSweepMatchesReference(t *testing.T) {
	for _, wide := range []bool{false, true} {
		for seed := int64(1); seed <= 300; seed++ {
			n := sweepNetlist(seed, wide)
			if wide {
				checkWide(t, seed, n)
			}
			got := latchConst(n, findConstLatches(n))
			want := refFindConstLatches(n)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d (wide %v): substitution %v, reference %v", seed, wide, got, want)
			}
		}
	}
}

// checkWide checks that a wide netlist spans more than one block and that
// its chain straddles the first block boundary.
func checkWide(t *testing.T, seed int64, n *aig.Netlist) {
	t.Helper()
	if len(n.Latches) <= searchLanes || len(n.Latches) > 200 {
		t.Fatalf("wide seed %d: %d latches, want 65-200", seed, len(n.Latches))
	}
	lo, hi := len(n.Latches), -1
	for i, l := range n.Latches {
		if l.Name[0] == 'c' {
			lo, hi = min(lo, i), max(hi, i)
		}
	}
	if lo >= searchLanes || hi < searchLanes {
		t.Fatalf("wide seed %d: chain at latches %d..%d does not straddle %d", seed, lo, hi, searchLanes)
	}
}

// TestConstSweepShapes checks the named shapes of sweepNetlist directly, so
// the reference comparison above is known to cover each of them.
func TestConstSweepShapes(t *testing.T) {
	for _, wide := range []bool{false, true} {
		checkSweepShapes(t, sweepNetlist(7, wide))
	}
}

func checkSweepShapes(t *testing.T, n *aig.Netlist) {
	t.Helper()
	sub := latchConst(n, findConstLatches(n))
	byName := make(map[string]*aig.Latch)
	for _, l := range n.Latches {
		byName[l.Name] = l
	}
	for name, l := range byName {
		c, swept := sub[l.Node]
		switch {
		case name[0] == 'c' || name == "s":
			if !swept || c != aig.False.XorInv(l.Init == aig.Init1) {
				t.Errorf("%s: want swept to its init %v, got %v (swept %v)", name, l.Init, c, swept)
			}
		case name == "one":
			if c != aig.True {
				t.Errorf("one: want swept to 1, got %v (swept %v)", c, swept)
			}
		case name == "p" || name == "q" || name == "x":
			if swept {
				t.Errorf("%s: must stay unswept, got %v", name, c)
			}
		}
	}
}

// TestConstSweepConcurrent runs the sweep on one netlist from several
// goroutines at once, as the job server does for concurrent requests: the
// search keeps its scratch state per call, so every goroutine gets the
// reference substitution (and -race sees no shared writes).
func TestConstSweepConcurrent(t *testing.T) {
	n := sweepNetlist(11, true)
	want := refFindConstLatches(n)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := latchConst(n, findConstLatches(n)); !reflect.DeepEqual(got, want) {
					errs <- fmt.Sprintf("substitution %v, reference %v", got, want)
					return
				}
				if _, err := Compile(n, []int{0}, Options{}); err != nil {
					errs <- err.Error()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
