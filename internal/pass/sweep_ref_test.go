package pass

import "emmver/internal/aig"

// The map-based constant sweep as it was before the dense-memo rewrite,
// kept as the reference the exactness tests compare findConstLatches to.

// refFindConstLatches returns an inductive constant substitution: latch node
// -> constant literal, for latches whose next-state function evaluates to
// their (binary) reset value under the substitution found so far plus the
// latch's own value at reset.
func refFindConstLatches(n *aig.Netlist) map[aig.NodeID]aig.Lit {
	sub := make(map[aig.NodeID]aig.Lit)
	for changed := true; changed; {
		changed = false
		for _, l := range n.Latches {
			if _, done := sub[l.Node]; done || l.Init == aig.InitX {
				continue
			}
			want := l.Init == aig.Init1
			if v, ok := refEvalConst(n, l.Next, sub, l.Node, want); ok && v == want {
				sub[l.Node] = aig.False.XorInv(want)
				changed = true
			}
		}
	}
	return sub
}

// refEvalConst partially evaluates lit under the constant substitution, with
// the latch `self` assumed to hold selfVal. Returns (value, known).
func refEvalConst(n *aig.Netlist, lit aig.Lit, sub map[aig.NodeID]aig.Lit, self aig.NodeID, selfVal bool) (bool, bool) {
	memo := make(map[aig.NodeID]tv)
	var nodeVal func(id aig.NodeID) tv
	nodeVal = func(id aig.NodeID) tv {
		if v, ok := memo[id]; ok {
			return v
		}
		var v tv
		switch {
		case id == 0:
			v = falseV
		case id == self:
			v = falseV
			if selfVal {
				v = trueV
			}
		default:
			if c, ok := sub[id]; ok {
				v = falseV
				if c == aig.True {
					v = trueV
				}
				break
			}
			node := n.NodeAt(id)
			if node.Kind != aig.KAnd {
				v = unknown
				break
			}
			a := litVal(nodeVal(node.F0.Node()), node.F0.Inverted())
			if a == falseV {
				v = falseV
				break
			}
			b := litVal(nodeVal(node.F1.Node()), node.F1.Inverted())
			switch {
			case b == falseV:
				v = falseV
			case a == trueV && b == trueV:
				v = trueV
			default:
				v = unknown
			}
		}
		memo[id] = v
		return v
	}
	v := litVal(nodeVal(lit.Node()), lit.Inverted())
	switch v {
	case falseV:
		return false, true
	case trueV:
		return true, true
	}
	return false, false
}
