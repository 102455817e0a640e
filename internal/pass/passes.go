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
