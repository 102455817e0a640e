package pass

import "emmver/internal/aig"

// A passFunc reduces a netlist. props are indices into n.Props; the
// returned props index the returned netlist (rebuilds emit only the
// selected properties, renumbered from 0). A pass that finds nothing to do
// returns its inputs unchanged with an identity mapping.
type passFunc func(n *aig.Netlist, props []int) (*aig.Netlist, *Mapping, []int)

func identityProps(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}

// coiPass is the classic cone-of-influence reduction: drop every input,
// latch, gate, and memory module the selected properties (plus all
// constraints) cannot depend on. Memory-granular — a reached memory keeps
// all its ports; portsPass refines that.
func coiPass(n *aig.Netlist, props []int) (*aig.Netlist, *Mapping, []int) {
	out, rm := aig.ExtractCone(n, props)
	return out, fromRebuild(rm), identityProps(len(props))
}

// sweepPass finds latches that provably hold their reset value forever
// (Next re-evaluates to the init value assuming the latch itself and every
// previously proven latch are at their init values — sound by induction),
// substitutes them with constants, and then sweeps everything that is
// dangling after the substitution: gates, inputs, latches, and memories
// outside the substituted cone of the properties and constraints.
func sweepPass(n *aig.Netlist, props []int) (*aig.Netlist, *Mapping, []int) {
	val := findConstLatches(n)
	sub := latchConst(n, val)
	needNode, needMem := substCone(n, props, val)
	if len(sub) == 0 && nothingDropped(n, props, needNode, needMem) {
		return n, Identity(), props
	}
	out, rm := aig.Rebuild(n, aig.RebuildSpec{
		KeepInput:  func(id aig.NodeID) bool { return needNode[id] },
		KeepLatch:  func(i int) bool { return needNode[n.Latches[i].Node] },
		LatchConst: sub,
		KeepMem:    func(mi int) bool { return needMem[mi] },
		Props:      props,
	})
	return out, fromRebuild(rm), identityProps(len(props))
}

// findConstLatches returns an inductive constant substitution as a
// node-indexed slice (unknown = not substituted): the latches whose
// next-state function evaluates to their (binary) reset value under the
// substitution found so far plus the latch's own value at reset. It is
// the least fixpoint of that rule. The substitution only grows and
// ternary evaluation is monotone in it, so the result does not depend on
// the order latches are tried in. Each round costs one evaluation per
// open latch, linear in that latch's next-state cone.
func findConstLatches(n *aig.Netlist) []tv {
	e := newConstEval(n)
	for changed := true; changed; {
		changed = false
		for _, l := range n.Latches {
			if e.sub[l.Node] != unknown || l.Init == aig.InitX {
				continue
			}
			want := falseV
			if l.Init == aig.Init1 {
				want = trueV
			}
			if e.eval(l.Next, l.Node, want) == want {
				e.sub[l.Node] = want
				changed = true
			}
		}
	}
	return e.sub
}

// latchConst converts a node-indexed substitution to the latch node ->
// constant literal form of aig.RebuildSpec.LatchConst.
func latchConst(n *aig.Netlist, sub []tv) map[aig.NodeID]aig.Lit {
	out := make(map[aig.NodeID]aig.Lit)
	for _, l := range n.Latches {
		if v := sub[l.Node]; v != unknown {
			out[l.Node] = aig.False.XorInv(v == trueV)
		}
	}
	return out
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

// constEval partially evaluates literals under a constant substitution.
// Its memo is dense and epoch-stamped: memo[id] holds epoch<<2 | value,
// and an entry stamped with an older epoch counts as absent, so starting
// a fresh evaluation costs one increment instead of clearing the memo.
type constEval struct {
	n     *aig.Netlist
	sub   []tv // node-indexed substitution
	memo  []uint32
	epoch uint32

	self    aig.NodeID
	selfVal tv
}

func newConstEval(n *aig.Netlist) *constEval {
	return &constEval{
		n:    n,
		sub:  make([]tv, n.NumNodes()),
		memo: make([]uint32, n.NumNodes()),
	}
}

// eval returns lit's value under the substitution, with the latch self
// assumed to hold selfVal.
func (e *constEval) eval(lit aig.Lit, self aig.NodeID, selfVal tv) tv {
	e.epoch++
	if e.epoch == 1<<30 {
		clear(e.memo)
		e.epoch = 1
	}
	e.self, e.selfVal = self, selfVal
	return litVal(e.nodeVal(lit.Node()), lit.Inverted())
}

func (e *constEval) nodeVal(id aig.NodeID) tv {
	if m := e.memo[id]; m>>2 == e.epoch {
		return tv(m & 3)
	}
	var v tv
	switch {
	case id == 0:
		v = falseV
	case id == e.self:
		v = e.selfVal
	case e.sub[id] != unknown:
		v = e.sub[id]
	default:
		node := e.n.NodeAt(id)
		if node.Kind != aig.KAnd {
			break
		}
		a := litVal(e.nodeVal(node.F0.Node()), node.F0.Inverted())
		if a == falseV {
			v = falseV
			break
		}
		b := litVal(e.nodeVal(node.F1.Node()), node.F1.Inverted())
		switch {
		case b == falseV:
			v = falseV
		case a == trueV && b == trueV:
			v = trueV
		}
	}
	e.memo[id] = e.epoch<<2 | uint32(v)
	return v
}

// substCone is the cone-of-influence fixpoint with a constant substitution
// applied: substituted latches contribute nothing, so logic that only fed
// them becomes dangling and is swept. Memory-granular, like ExtractCone.
func substCone(n *aig.Netlist, props []int, sub []tv) (needNode []bool, needMem []bool) {
	needNode = make([]bool, n.NumNodes())
	needMem = make([]bool, len(n.Memories))

	readRef := n.ReadRefs()

	var stack []aig.NodeID
	push := func(l aig.Lit) {
		id := l.Node()
		if sub[id] != unknown {
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
	return needNode, needMem
}

// portsPass prunes at port granularity, the structural form of §4.3's
// criterion: starting from the selected properties and all constraints,
// only the read ports actually reached keep their address/enable cones; a
// reached memory pulls in its write ports' nets except ports whose enable
// is constant false (which can never forward data); memories with no live
// read port are dropped whole, along with every latch and input that was
// only feeding pruned ports.
func portsPass(n *aig.Netlist, props []int) (*aig.Netlist, *Mapping, []int) {
	needNode := make([]bool, n.NumNodes())
	readLive := make([][]bool, len(n.Memories))
	memSeen := make([]bool, len(n.Memories))
	for mi, m := range n.Memories {
		readLive[mi] = make([]bool, len(m.Reads))
	}

	readRef := n.ReadRefs()

	var stack []aig.NodeID
	push := func(l aig.Lit) {
		id := l.Node()
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
			mi, ri := readRef[id].Mem, readRef[id].Port
			m := n.Memories[mi]
			if !readLive[mi][ri] {
				readLive[mi][ri] = true
				rp := m.Reads[ri]
				for _, a := range rp.Addr {
					push(a)
				}
				push(rp.En)
			}
			if !memSeen[mi] {
				memSeen[mi] = true
				for _, wp := range m.Writes {
					if wp.En == aig.False {
						continue
					}
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
	}

	keepMem := make([]bool, len(n.Memories))
	dropped := false
	for mi := range n.Memories {
		for _, live := range readLive[mi] {
			keepMem[mi] = keepMem[mi] || live
		}
		if !keepMem[mi] {
			dropped = true
			continue
		}
		for _, live := range readLive[mi] {
			dropped = dropped || !live
		}
		for _, wp := range n.Memories[mi].Writes {
			dropped = dropped || wp.En == aig.False
		}
	}
	if !dropped && nothingDropped(n, props, needNode, keepMem) {
		return n, Identity(), props
	}

	out, rm := aig.Rebuild(n, aig.RebuildSpec{
		KeepInput: func(id aig.NodeID) bool { return needNode[id] },
		KeepLatch: func(i int) bool { return needNode[n.Latches[i].Node] },
		KeepMem:   func(mi int) bool { return keepMem[mi] },
		KeepRead:  func(mi, ri int) bool { return readLive[mi][ri] },
		KeepWrite: func(mi, wi int) bool { return n.Memories[mi].Writes[wi].En != aig.False },
		Props:     props,
	})
	return out, fromRebuild(rm), identityProps(len(props))
}

// dedupPass rebuilds the netlist through And()'s structural hashing and
// constant folding, merging duplicate gates the frontends may have
// introduced. It keeps every input, latch, memory, and port.
func dedupPass(n *aig.Netlist, props []int) (*aig.Netlist, *Mapping, []int) {
	out, rm := aig.Rebuild(n, aig.RebuildSpec{Props: props})
	return out, fromRebuild(rm), identityProps(len(props))
}

// nothingDropped reports whether the need sets keep every input, latch,
// and memory, and the props selection is the full property list in order.
func nothingDropped(n *aig.Netlist, props []int, needNode []bool, needMem []bool) bool {
	if len(props) != len(n.Props) {
		return false
	}
	for i, pi := range props {
		if pi != i {
			return false
		}
	}
	for _, id := range n.Inputs {
		if !needNode[id] {
			return false
		}
	}
	for _, l := range n.Latches {
		if !needNode[l.Node] {
			return false
		}
	}
	for _, need := range needMem {
		if !need {
			return false
		}
	}
	return true
}
