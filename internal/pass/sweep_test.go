package pass

import (
	"fmt"
	"math/rand"
	"reflect"
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
func sweepNetlist(seed int64) *aig.Netlist {
	rng := rand.New(rand.NewSource(seed))
	n := aig.New(fmt.Sprintf("sweep%d", seed))
	var pool []aig.Lit
	for i := 0; i < 4+rng.Intn(4); i++ {
		pool = append(pool, n.NewInput(""))
	}
	// Chain, declared last stage first.
	k := 2 + rng.Intn(5)
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
	var free []aig.Lit
	for i := 0; i < 6+rng.Intn(10); i++ {
		l := n.NewLatch(fmt.Sprintf("r%d", i), aig.Init(rng.Intn(3)))
		free = append(free, l)
		pool = append(pool, l)
	}
	pick := func() aig.Lit { return pool[rng.Intn(len(pool))].XorInv(rng.Intn(2) == 0) }
	for i := 0; i < 20+rng.Intn(40); i++ {
		pool = append(pool, n.And(pick(), pick()))
	}
	for _, l := range free {
		n.SetNext(l, pick())
	}
	n.AddProperty("p", pick())
	return n
}

// TestConstSweepMatchesReference pins the dense-memo sweep to the
// map-based reference on seeded random netlists: identical substitutions.
func TestConstSweepMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		n := sweepNetlist(seed)
		got := latchConst(n, findConstLatches(n))
		want := refFindConstLatches(n)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: substitution %v, reference %v", seed, got, want)
		}
	}
}

// TestConstSweepShapes checks the named shapes of sweepNetlist directly, so
// the reference comparison above is known to cover each of them.
func TestConstSweepShapes(t *testing.T) {
	n := sweepNetlist(7)
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
