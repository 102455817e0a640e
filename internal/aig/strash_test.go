package aig

import (
	"math/rand"
	"testing"
)

// refStrash is the map-keyed structural hash the flat table replaced,
// numbering new gates exactly as Netlist.And does.
type refStrash struct {
	m    map[[2]Lit]NodeID
	next NodeID
}

func (r *refStrash) and(a, b Lit) Lit {
	switch {
	case a == False || b == False:
		return False
	case a == True:
		return b
	case b == True:
		return a
	case a == b:
		return a
	case a == b.Not():
		return False
	}
	if a > b {
		a, b = b, a
	}
	key := [2]Lit{a, b}
	if id, ok := r.m[key]; ok {
		return MkLit(id, false)
	}
	id := r.next
	r.next++
	r.m[key] = id
	return MkLit(id, false)
}

// TestStrashMatchesMap drives the flat table and the reference map with
// one random And sequence — fresh gates, repeats in both fanin orders,
// and folds — across several table growths, and requires identical
// literals and node counts throughout.
func TestStrashMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := New("strash")
		var lits []Lit
		for i := 0; i < 16; i++ {
			lits = append(lits, n.NewInput(""))
		}
		ref := &refStrash{m: make(map[[2]Lit]NodeID), next: NodeID(n.NumNodes())}
		pick := func() Lit {
			if rng.Intn(50) == 0 {
				return False.XorInv(rng.Intn(2) == 0)
			}
			return lits[rng.Intn(len(lits))].XorInv(rng.Intn(2) == 0)
		}
		var asked [][2]Lit
		growths, slots, hits := 0, 0, 0
		for i := 0; i < 40000; i++ {
			a, b := pick(), pick()
			if len(asked) > 0 && rng.Intn(4) == 0 {
				p := asked[rng.Intn(len(asked))]
				a, b = p[1], p[0]
				hits++
			}
			asked = append(asked, [2]Lit{a, b})
			got, want := n.And(a, b), ref.and(a, b)
			if got != want {
				t.Fatalf("seed %d step %d: And(%v, %v) = %v, reference %v", seed, i, a, b, got, want)
			}
			if got.Node() != 0 && rng.Intn(3) > 0 {
				lits = append(lits, got)
			}
			if len(n.strash.slots) != slots {
				growths++
				slots = len(n.strash.slots)
			}
		}
		if n.NumNodes() != int(ref.next) {
			t.Fatalf("seed %d: NumNodes %d, reference %d", seed, n.NumNodes(), ref.next)
		}
		if n.strash.count != len(ref.m) {
			t.Fatalf("seed %d: table holds %d gates, reference %d", seed, n.strash.count, len(ref.m))
		}
		if hits == 0 || growths < 5 {
			t.Fatalf("seed %d: %d repeats, %d table sizes; want repeats and several growths", seed, hits, growths)
		}
	}
}
