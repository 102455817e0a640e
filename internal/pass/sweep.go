package pass

import "emmver/internal/aig"

// sweepPass finds latches that provably hold their reset value forever
// (Next re-evaluates to the init value assuming the latch itself and every
// previously proven latch are at their init values — sound by induction),
// substitutes every node whose value is constant under that substitution,
// and then sweeps everything that is dangling after the substitution:
// gates, inputs, latches, and memories outside the substituted cone of the
// properties and constraints. Logic behind a constant gate (a datapath
// gated by a register stuck at 0) is never copied.
func sweepPass(n *aig.Netlist, props []int) (*aig.Netlist, *Mapping, []int) {
	val := nodeValues(n, findConstLatches(n))
	needNode, needMem, konst := substCone(n, props, val)
	if len(konst) == 0 && nothingDropped(n, props, needNode, needMem) {
		return n, Identity(), props
	}
	out, rm := aig.Rebuild(n, aig.RebuildSpec{
		KeepInput: func(id aig.NodeID) bool { return needNode[id] },
		KeepLatch: func(i int) bool { return needNode[n.Latches[i].Node] },
		Const:     konst,
		KeepMem:   func(mi int) bool { return needMem[mi] },
		Props:     props,
	})
	return out, fromRebuild(rm), identityProps(len(props))
}

// tv is a three-valued truth value for partial evaluation.
type tv int8

const (
	unknown tv = iota
	falseV
	trueV
)

// litVal applies a literal's complement bit to a node's truth value.
func litVal(v tv, inv bool) tv {
	if !inv || v == unknown {
		return v
	}
	return falseV + trueV - v
}

// findConstLatches returns an inductive constant substitution as a
// node-indexed slice (unknown = not substituted): the latches whose
// next-state function evaluates to their (binary) reset value under the
// substitution found so far plus the latch's own value at reset. It is
// the least fixpoint of that rule. The substitution only grows and
// ternary evaluation is monotone in it, so the result does not depend on
// the order latches are tried in.
//
// The open latches are split into blocks of 64 that are evaluated
// together, one lane per latch (see constSearch), so a node shared by the
// cones of a block's latches is evaluated once per block, not once per
// latch. A block is evaluated again only after a latch in its union cone
// was proven, which is the only way its answer can change.
func findConstLatches(n *aig.Netlist) []tv {
	s := newConstSearch(n)
	var open []*aig.Latch
	for _, l := range n.Latches {
		if l.Init != aig.InitX {
			open = append(open, l)
		}
	}
	type block struct {
		latches []*aig.Latch
		done    bool         // evaluated with no proof of its leaves since
		leaves  []aig.NodeID // open latches in its union cone at that time
	}
	var blocks []block
	for lo := 0; lo < len(open); lo += searchLanes {
		blocks = append(blocks, block{latches: open[lo:min(lo+searchLanes, len(open))]})
	}
	for again := true; again; {
		again = false
		for i := range blocks {
			b := &blocks[i]
			if b.done && !s.anyProven(b.leaves) {
				continue
			}
			var proved uint64
			proved, b.leaves = s.evalBlock(b.latches, b.leaves[:0])
			b.done = true
			for j, l := range b.latches {
				if proved>>j&1 != 0 {
					s.sub[l.Node] = resetVal(l)
					again = true
				}
			}
		}
	}
	return s.sub
}

// searchLanes is the number of latches constSearch evaluates at once, one
// per bit of a word.
const searchLanes = 64

// resetVal is a binary-init latch's reset value as a truth value.
func resetVal(l *aig.Latch) tv {
	if l.Init == aig.Init1 {
		return trueV
	}
	return falseV
}

// constSearch evaluates up to 64 latches' next-state functions at once in
// ternary logic over dual-rail words: bit j of f[id] (t[id]) says node id
// is false (true) in lane j, neither bit says unknown. Lane j assumes the
// substitution sub plus its own latch at its reset value. All scratch
// state lives here, one search per call, so concurrent compiles share
// nothing.
type constSearch struct {
	n    *aig.Netlist
	sub  []tv
	f, t []uint64

	// stamp marks the nodes of the current block's cone: 2*epoch while a
	// gate's fanins are being visited, 2*epoch+1 once it is in order.
	stamp []uint32
	epoch uint32
	order []aig.NodeID // the cone, fanins before fanouts
	stack []aig.NodeID
}

func newConstSearch(n *aig.Netlist) *constSearch {
	nn := n.NumNodes()
	return &constSearch{
		n:     n,
		sub:   make([]tv, nn),
		f:     make([]uint64, nn),
		t:     make([]uint64, nn),
		stamp: make([]uint32, nn),
	}
}

// anyProven reports whether a latch among ids has been substituted.
func (s *constSearch) anyProven(ids []aig.NodeID) bool {
	for _, id := range ids {
		if s.sub[id] != unknown {
			return true
		}
	}
	return false
}

// evalBlock evaluates the block's open latches, latch j in lane j, over
// the union of their next-state cones. It returns the lanes whose
// next-state value is their latch's reset value, and appends to leaves the
// open latches the cone reads.
func (s *constSearch) evalBlock(ls []*aig.Latch, leaves []aig.NodeID) (uint64, []aig.NodeID) {
	s.epoch++
	s.order = s.order[:0]
	for _, l := range ls {
		if s.sub[l.Node] == unknown {
			leaves = s.cone(l.Next.Node(), leaves)
		}
	}
	done := 2*s.epoch + 1
	for j, l := range ls {
		if s.sub[l.Node] != unknown || s.stamp[l.Node] != done {
			continue
		}
		if resetVal(l) == trueV {
			s.t[l.Node] |= 1 << j
		} else {
			s.f[l.Node] |= 1 << j
		}
	}
	for _, id := range s.order {
		nd := s.n.NodeAt(id)
		if nd.Kind != aig.KAnd {
			continue
		}
		fa, ta := s.rails(nd.F0)
		fb, tb := s.rails(nd.F1)
		s.f[id], s.t[id] = fa|fb, ta&tb
	}
	var proved uint64
	for j, l := range ls {
		if s.sub[l.Node] != unknown {
			continue
		}
		f, t := s.rails(l.Next)
		if resetVal(l) == trueV {
			f = t
		}
		proved |= f & (1 << j)
	}
	return proved, leaves
}

// rails returns a literal's dual-rail words.
func (s *constSearch) rails(l aig.Lit) (f, t uint64) {
	id := l.Node()
	if l.Inverted() {
		return s.t[id], s.f[id]
	}
	return s.f[id], s.t[id]
}

// cone appends root's cone to s.order, fanins before fanouts, seeding
// every leaf's rails from the substitution; open latches it reaches are
// appended to leaves.
func (s *constSearch) cone(root aig.NodeID, leaves []aig.NodeID) []aig.NodeID {
	visiting, done := 2*s.epoch, 2*s.epoch+1
	if s.stamp[root] >= visiting {
		return leaves
	}
	s.stack = append(s.stack[:0], root)
	for len(s.stack) > 0 {
		id := s.stack[len(s.stack)-1]
		switch s.stamp[id] {
		case done:
			s.stack = s.stack[:len(s.stack)-1]
			continue
		case visiting:
			s.stack = s.stack[:len(s.stack)-1]
			s.stamp[id] = done
			s.order = append(s.order, id)
			continue
		}
		nd := s.n.NodeAt(id)
		if nd.Kind == aig.KAnd {
			s.stamp[id] = visiting
			for _, fi := range [2]aig.NodeID{nd.F0.Node(), nd.F1.Node()} {
				if s.stamp[fi] < visiting {
					s.stack = append(s.stack, fi)
				}
			}
			continue
		}
		s.stack = s.stack[:len(s.stack)-1]
		s.stamp[id] = done
		s.order = append(s.order, id)
		s.f[id], s.t[id] = 0, 0
		switch {
		case id == 0 || s.sub[id] == falseV:
			s.f[id] = ^uint64(0)
		case s.sub[id] == trueV:
			s.t[id] = ^uint64(0)
		case nd.Kind == aig.KLatch:
			leaves = append(leaves, id)
		}
	}
	return leaves
}

// nodeValues extends a latch substitution to every node: one ternary
// evaluation in node-id order, which is topological (a gate's fanins are
// created before it). It overwrites and returns sub.
func nodeValues(n *aig.Netlist, sub []tv) []tv {
	sub[0] = falseV
	for id := 1; id < len(sub); id++ {
		nd := n.NodeAt(aig.NodeID(id))
		if nd.Kind != aig.KAnd {
			continue
		}
		a := litVal(sub[nd.F0.Node()], nd.F0.Inverted())
		b := litVal(sub[nd.F1.Node()], nd.F1.Inverted())
		switch {
		case a == falseV || b == falseV:
			sub[id] = falseV
		case a == trueV && b == trueV:
			sub[id] = trueV
		}
	}
	return sub
}

// substCone is the cone-of-influence fixpoint with the constant nodes of
// val cut out: a constant node contributes nothing, so logic that only fed
// constants becomes dangling and is swept. It returns the kept nodes and
// memories (memory-granular, like ExtractCone) and, for aig.RebuildSpec's
// Const, the constant nodes the kept cone reads.
func substCone(n *aig.Netlist, props []int, val []tv) (needNode []bool, needMem []bool, konst map[aig.NodeID]aig.Lit) {
	needNode = make([]bool, n.NumNodes())
	needMem = make([]bool, len(n.Memories))
	konst = make(map[aig.NodeID]aig.Lit)

	readRef := n.ReadRefs()

	var stack []aig.NodeID
	push := func(l aig.Lit) {
		id := l.Node()
		if v := val[id]; v != unknown {
			if id != 0 {
				konst[id] = aig.False.XorInv(v == trueV)
			}
			return
		}
		if !needNode[id] {
			needNode[id] = true
			stack = append(stack, id)
		}
	}
	for _, pi := range props {
		push(n.Props[pi].OK)
	}
	for _, c := range n.Constraints {
		push(c)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node := n.NodeAt(id)
		switch node.Kind {
		case aig.KAnd:
			push(node.F0)
			push(node.F1)
		case aig.KLatch:
			push(n.LatchOf(id).Next)
		case aig.KMemRead:
			mi := readRef[id].Mem
			if needMem[mi] {
				continue
			}
			needMem[mi] = true
			m := n.Memories[mi]
			for _, rp := range m.Reads {
				for _, a := range rp.Addr {
					push(a)
				}
				push(rp.En)
				for _, dn := range rp.Data {
					needNode[dn] = true
				}
			}
			for _, wp := range m.Writes {
				for _, a := range wp.Addr {
					push(a)
				}
				for _, d := range wp.Data {
					push(d)
				}
				push(wp.En)
			}
		}
	}
	return needNode, needMem, konst
}
