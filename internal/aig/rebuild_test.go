package aig

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refRebuild is a plain recursive Rebuild: each root's cone is copied
// depth first, F0 before F1, into a netlist that grows as it goes.
// TestRebuildMatchesRecursiveCopy holds Rebuild to its node numbering.
func refRebuild(n *Netlist, sp RebuildSpec) (*Netlist, *RebuildMap) {
	keepWrite := sp.KeepWrite
	if keepWrite == nil {
		keepWrite = func(int, int) bool { return true }
	}
	out := New(n.Name)
	rm := &RebuildMap{Input: map[NodeID]NodeID{}, Latch: map[NodeID]NodeID{}}
	newLit := make([]Lit, len(n.nodes))
	for i := range newLit {
		newLit[i] = noLit
	}
	newLit[0] = False
	for id, l := range sp.Const {
		newLit[id] = l
	}
	for _, id := range n.Inputs {
		l := out.NewInput(n.InputName(id))
		newLit[id] = l
		rm.Input[id] = l.Node()
	}
	for i, l := range n.Latches {
		if _, sub := sp.Const[l.Node]; sub {
			continue
		}
		nl := out.NewLatch(l.Name, l.Init)
		newLit[l.Node] = nl
		rm.Latch[l.Node] = nl.Node()
		rm.LatchIndex = append(rm.LatchIndex, i)
	}
	for mi, m := range n.Memories {
		nm := out.NewMemory(m.Name, m.AW, m.DW, m.Init)
		rm.Mem = append(rm.Mem, mi)
		var reads []int
		for ri, rp := range m.Reads {
			nrp := out.NewReadPort(nm)
			for b, dn := range rp.Data {
				newLit[dn] = MkLit(nrp.Data[b], false)
			}
			reads = append(reads, ri)
		}
		rm.Read = append(rm.Read, reads)
	}
	var copyLit func(l Lit) Lit
	copyLit = func(l Lit) Lit {
		id := l.Node()
		if v := newLit[id]; v != noLit {
			return v.XorInv(l.Inverted())
		}
		node := n.nodes[id]
		v := out.And(copyLit(node.F0), copyLit(node.F1))
		newLit[id] = v
		return v.XorInv(l.Inverted())
	}
	copyAll := func(ls []Lit) []Lit {
		out := make([]Lit, len(ls))
		for i, l := range ls {
			out[i] = copyLit(l)
		}
		return out
	}
	for _, si := range rm.LatchIndex {
		l := n.Latches[si]
		out.SetNext(newLit[l.Node], copyLit(l.Next))
	}
	for cmi, mi := range rm.Mem {
		m, nm := n.Memories[mi], out.Memories[cmi]
		for nri, ri := range rm.Read[cmi] {
			rp := m.Reads[ri]
			addr := copyAll(rp.Addr)
			out.SetReadAddr(nm, nm.Reads[nri], addr, copyLit(rp.En))
		}
		var writes []int
		for wi, wp := range m.Writes {
			if !keepWrite(mi, wi) {
				continue
			}
			addr := copyAll(wp.Addr)
			data := copyAll(wp.Data)
			out.NewWritePort(nm, addr, data, copyLit(wp.En))
			writes = append(writes, wi)
		}
		rm.Write = append(rm.Write, writes)
	}
	for _, pi := range sp.Props {
		out.AddProperty(n.Props[pi].Name, copyLit(n.Props[pi].OK))
		rm.Prop = append(rm.Prop, pi)
	}
	for _, c := range n.Constraints {
		out.AddConstraint(copyLit(c))
	}
	return out, rm
}

// randRebuildCase builds a seeded random netlist with one memory and a
// spec over it: a random property selection, dropped write ports, and
// random gates and latches substituted by constants.
func randRebuildCase(seed int64) (*Netlist, RebuildSpec) {
	rng := rand.New(rand.NewSource(seed))
	n := New(fmt.Sprintf("rebuild%d", seed))
	var pool, latches []Lit
	for i := 0; i < 3+rng.Intn(4); i++ {
		pool = append(pool, n.NewInput(fmt.Sprintf("i%d", i)))
	}
	for i := 0; i < 3+rng.Intn(6); i++ {
		l := n.NewLatch(fmt.Sprintf("l%d", i), Init(rng.Intn(3)))
		latches = append(latches, l)
		pool = append(pool, l)
	}
	m := n.NewMemory("m", 2, 2, MemZero)
	for i := 0; i < 1+rng.Intn(2); i++ {
		pool = append(pool, n.NewReadPort(m).DataLits()...)
	}
	pick := func() Lit { return pool[rng.Intn(len(pool))].XorInv(rng.Intn(2) == 0) }
	var gates []Lit
	for i := 0; i < 20+rng.Intn(60); i++ {
		g := n.And(pick(), pick())
		pool = append(pool, g)
		if g.Node() > 0 && n.Kind(g) == KAnd {
			gates = append(gates, g)
		}
	}
	for _, l := range latches {
		n.SetNext(l, pick())
	}
	for _, rp := range m.Reads {
		n.SetReadAddr(m, rp, []Lit{pick(), pick()}, pick())
	}
	for i := 0; i < 1+rng.Intn(2); i++ {
		n.NewWritePort(m, []Lit{pick(), pick()}, []Lit{pick(), pick()}, pick())
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		n.AddProperty(fmt.Sprintf("p%d", i), pick())
	}
	for i := 0; i < rng.Intn(3); i++ {
		n.AddConstraint(pick())
	}

	sp := RebuildSpec{Const: map[NodeID]Lit{}, Props: rng.Perm(len(n.Props))[:1+rng.Intn(len(n.Props))]}
	for _, g := range gates {
		if rng.Intn(8) == 0 {
			sp.Const[g.Node()] = False.XorInv(rng.Intn(2) == 0)
		}
	}
	for _, l := range latches {
		if rng.Intn(4) == 0 {
			sp.Const[l.Node()] = False.XorInv(rng.Intn(2) == 0)
		}
	}
	dropWrite := rng.Intn(len(m.Writes) + 1)
	sp.KeepWrite = func(_, wi int) bool { return wi != dropWrite }
	return n, sp
}

// sameNetlist describes the first difference between two netlists, or
// returns "".
func sameNetlist(a, b *Netlist) string {
	switch {
	case !reflect.DeepEqual(a.nodes, b.nodes):
		return fmt.Sprintf("nodes %v vs %v", a.nodes, b.nodes)
	case !reflect.DeepEqual(a.Inputs, b.Inputs):
		return "inputs differ"
	case !reflect.DeepEqual(a.Latches, b.Latches):
		return "latches differ"
	case !reflect.DeepEqual(a.Memories, b.Memories):
		return "memories differ"
	case !reflect.DeepEqual(a.Props, b.Props):
		return "properties differ"
	case !reflect.DeepEqual(a.Constraints, b.Constraints):
		return "constraints differ"
	}
	return ""
}

// TestRebuildMatchesRecursiveCopy compares Rebuild with the recursive copy
// on seeded random netlists and specs: the same node ids, ports,
// properties, constraints and map.
func TestRebuildMatchesRecursiveCopy(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		n, sp := randRebuildCase(seed)
		got, grm := Rebuild(n, sp)
		want, wrm := refRebuild(n, sp)
		if d := sameNetlist(got, want); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
		if !reflect.DeepEqual(grm, wrm) {
			t.Fatalf("seed %d: map %+v, reference %+v", seed, grm, wrm)
		}
	}
}

// TestRebuildSizesOnce checks that a rebuild allocates its node slice for
// exactly the nodes it creates when no gate folds: a chain of 100 gates,
// all reached from the property, comes out with no spare capacity, where
// growth by doubling would leave some.
func TestRebuildSizesOnce(t *testing.T) {
	n := New("chain")
	a, b := n.NewInput("a"), n.NewInput("b")
	g := a
	for i := 0; i < 100; i++ {
		g = n.And(g, b.XorInv(i%2 == 0))
		g = g.XorInv(true)
	}
	n.AddProperty("p", g)
	out, _ := Rebuild(n, RebuildSpec{})
	if len(out.nodes) != len(n.nodes) || cap(out.nodes) != len(out.nodes) {
		t.Fatalf("rebuilt %d nodes (source %d) into capacity %d", len(out.nodes), len(n.nodes), cap(out.nodes))
	}
}
