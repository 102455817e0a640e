package aig

// ExtractCone builds a reduced copy of the netlist containing only the
// cone of influence of the selected properties (and all environment
// constraints): the latches, gates, inputs, and memories that can affect
// them, found by a fixpoint over combinational support — a latch pulls in
// its next-state cone, a memory read-data node pulls in the whole memory
// module (all its ports' address/data/enable cones, since any write may be
// forwarded to the read).
//
// The reduction is memory-granular: a reached memory keeps all its ports.
// Port-granular pruning is layered on top by package pass. The returned
// RebuildMap relates the reduced netlist to the source in both directions
// so witnesses and latch-reason sets can be translated across it.
func ExtractCone(n *Netlist, props []int) (*Netlist, *RebuildMap) {
	needNode, needMem := coneOf(n, props)
	return Rebuild(n, RebuildSpec{
		Name:      n.Name + "_coi",
		KeepInput: func(id NodeID) bool { return needNode[id] },
		KeepLatch: func(i int) bool { return needNode[n.Latches[i].Node] },
		KeepMem:   func(mi int) bool { return needMem[mi] },
		Props:     props,
	})
}

// coneOf runs the cone-of-influence fixpoint and returns which nodes and
// which memory modules the selected properties (plus all constraints) can
// depend on.
func coneOf(n *Netlist, props []int) (needNode []bool, needMem []bool) {
	needNode = make([]bool, n.NumNodes())
	needMem = make([]bool, len(n.Memories))

	readRef := n.ReadRefs()

	var stack []NodeID
	push := func(l Lit) {
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
		node := n.nodes[id]
		switch node.Kind {
		case KAnd:
			push(node.F0)
			push(node.F1)
		case KLatch:
			push(n.latchOf[id].Next)
		case KMemRead:
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
					if !needNode[dn] {
						needNode[dn] = true
					}
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
