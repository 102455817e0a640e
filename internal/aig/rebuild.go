package aig

// RebuildSpec selects what survives a Rebuild. Every predicate defaults to
// "keep everything" when nil, so the zero spec is an identity rebuild that
// still routes all gates through And() — i.e. a structural-dedup /
// constant-fold pass.
type RebuildSpec struct {
	// KeepInput/KeepLatch decide per primary input node and per latch
	// index whether the element is declared in the rebuilt netlist.
	KeepInput func(id NodeID) bool
	KeepLatch func(i int) bool

	// Const substitutes a node (a latch or a gate, by its node id) with a
	// constant literal: the rebuild never copies it or its fanin cone. It
	// overrides KeepLatch: a latch in Const is never declared. The caller
	// is responsible for the substitution being sound (e.g. proved
	// inductively constant).
	Const map[NodeID]Lit

	// KeepMem/KeepRead/KeepWrite decide per memory index, and per
	// (memory, port) index pair, which memory modules and ports survive.
	// Read data nodes of dropped ports must be unreachable from any kept
	// root, or the rebuild panics on an undeclared non-gate node.
	KeepMem   func(mi int) bool
	KeepRead  func(mi, ri int) bool
	KeepWrite func(mi, wi int) bool

	// Props selects which properties to emit (in the given order,
	// renumbered from 0). Nil keeps all properties in order.
	Props []int

	// Name names the rebuilt netlist; empty reuses the source name.
	Name string
}

// RebuildMap records how a rebuilt netlist's elements relate to the source
// netlist: node ids from source to rebuilt, indices from rebuilt to source.
type RebuildMap struct {
	// Input/Latch map source input/latch node ids to rebuilt node ids
	// (absent = dropped or substituted by a constant).
	Input map[NodeID]NodeID
	Latch map[NodeID]NodeID

	// LatchIndex maps rebuilt latch index -> source latch index.
	LatchIndex []int

	// Mem maps rebuilt memory index -> source memory index.
	Mem []int

	// Read[mi][ri] maps (rebuilt memory, rebuilt read port) -> source
	// read-port index. Write is the same for write ports.
	Read  [][]int
	Write [][]int

	// Prop maps rebuilt property index -> source property index.
	Prop []int
}

// Rebuild copies n into a fresh netlist, keeping only the elements the
// spec selects and re-deriving every gate through And() (so the result is
// structurally hashed and constant-folded even for an identity spec). All
// environment constraints are always preserved. The returned map relates
// the rebuilt netlist's elements to the source's. Rebuild finds the gates
// it copies before copying them and sizes the rebuilt netlist's node
// slice and structural hash for them, so each is allocated once.
//
// Reachability is the caller's contract: every literal feeding a kept
// latch next, kept port net, selected property, or constraint must bottom
// out in kept (or constant-substituted) inputs, latches, and read ports;
// otherwise Rebuild panics.
func Rebuild(n *Netlist, sp RebuildSpec) (*Netlist, *RebuildMap) {
	keepInput := sp.KeepInput
	if keepInput == nil {
		keepInput = func(NodeID) bool { return true }
	}
	keepLatch := sp.KeepLatch
	if keepLatch == nil {
		keepLatch = func(int) bool { return true }
	}
	keepMem := sp.KeepMem
	if keepMem == nil {
		keepMem = func(int) bool { return true }
	}
	keepRead := sp.KeepRead
	if keepRead == nil {
		keepRead = func(int, int) bool { return true }
	}
	keepWrite := sp.KeepWrite
	if keepWrite == nil {
		keepWrite = func(int, int) bool { return true }
	}
	name := sp.Name
	if name == "" {
		name = n.Name
	}

	out := New(name)
	rm := &RebuildMap{
		Input: make(map[NodeID]NodeID, len(n.Inputs)),
		Latch: make(map[NodeID]NodeID, len(n.Latches)),
	}
	// newLit maps a source node id to its rebuilt literal; noLit marks a
	// node not (yet) copied.
	newLit := make([]Lit, len(n.nodes))
	for i := range newLit {
		newLit[i] = noLit
	}
	newLit[0] = False
	for id, l := range sp.Const {
		newLit[id] = l
	}

	for _, id := range n.Inputs {
		if !keepInput(id) {
			continue
		}
		l := out.NewInput(n.InputName(id))
		newLit[id] = l
		rm.Input[id] = l.Node()
	}
	for i, l := range n.Latches {
		if _, sub := sp.Const[l.Node]; sub || !keepLatch(i) {
			continue
		}
		nl := out.NewLatch(l.Name, l.Init)
		newLit[l.Node] = nl
		rm.Latch[l.Node] = nl.Node()
		rm.LatchIndex = append(rm.LatchIndex, i)
	}

	for mi, m := range n.Memories {
		if !keepMem(mi) {
			continue
		}
		nm := out.NewMemory(m.Name, m.AW, m.DW, m.Init)
		nm.Image = m.Image
		rm.Mem = append(rm.Mem, mi)
		var reads []int
		for ri, rp := range m.Reads {
			if !keepRead(mi, ri) {
				continue
			}
			nrp := out.NewReadPort(nm)
			for b, dn := range rp.Data {
				newLit[dn] = MkLit(nrp.Data[b], false)
			}
			reads = append(reads, ri)
		}
		rm.Read = append(rm.Read, reads)
	}

	props := sp.Props
	if props == nil {
		props = make([]int, len(n.Props))
		for i := range props {
			props[i] = i
		}
	}

	// Copy every gate the kept roots reach, in the order a depth-first
	// copy creates them, into a netlist sized for them up front.
	var roots []Lit
	for _, si := range rm.LatchIndex {
		roots = append(roots, n.Latches[si].Next)
	}
	for cmi, mi := range rm.Mem {
		m := n.Memories[mi]
		for _, ri := range rm.Read[cmi] {
			roots = append(roots, m.Reads[ri].Addr...)
			roots = append(roots, m.Reads[ri].En)
		}
		for wi, wp := range m.Writes {
			if keepWrite(mi, wi) {
				roots = append(roots, wp.Addr...)
				roots = append(roots, wp.Data...)
				roots = append(roots, wp.En)
			}
		}
	}
	for _, pi := range props {
		roots = append(roots, n.Props[pi].OK)
	}
	roots = append(roots, n.Constraints...)
	order := n.copyOrder(roots, newLit)
	out.reserve(len(out.nodes)+len(order), len(order))
	copyLit := func(l Lit) Lit {
		v := newLit[l.Node()]
		if v == noLit {
			panic("aig: rebuild reached an undeclared non-gate node")
		}
		return v.XorInv(l.Inverted())
	}
	for _, id := range order {
		nd := &n.nodes[id]
		newLit[id] = out.And(copyLit(nd.F0), copyLit(nd.F1))
	}

	for _, si := range rm.LatchIndex {
		l := n.Latches[si]
		out.SetNext(newLit[l.Node], copyLit(l.Next))
	}
	for cmi, mi := range rm.Mem {
		m, nm := n.Memories[mi], out.Memories[cmi]
		for nri, ri := range rm.Read[cmi] {
			rp := m.Reads[ri]
			addr := make([]Lit, len(rp.Addr))
			for i, a := range rp.Addr {
				addr[i] = copyLit(a)
			}
			out.SetReadAddr(nm, nm.Reads[nri], addr, copyLit(rp.En))
		}
		var writes []int
		for wi, wp := range m.Writes {
			if !keepWrite(mi, wi) {
				continue
			}
			addr := make([]Lit, len(wp.Addr))
			for i, a := range wp.Addr {
				addr[i] = copyLit(a)
			}
			data := make([]Lit, len(wp.Data))
			for i, d := range wp.Data {
				data[i] = copyLit(d)
			}
			out.NewWritePort(nm, addr, data, copyLit(wp.En))
			writes = append(writes, wi)
		}
		rm.Write = append(rm.Write, writes)
	}

	for _, pi := range props {
		p := n.Props[pi]
		out.AddProperty(p.Name, copyLit(p.OK))
		rm.Prop = append(rm.Prop, pi)
	}
	for _, c := range n.Constraints {
		out.AddConstraint(copyLit(c))
	}
	return out, rm
}

// noLit marks an absent entry in a node-indexed literal slice.
const noLit Lit = -1

// copyOrder returns the gates a rebuild copies to reach roots: the AND
// nodes reachable from them through nodes newLit does not map yet. They
// come in the order a recursive copy would create them (fanins first, F0's
// cone before F1's), so a rebuild's node ids do not depend on how it
// walks.
func (n *Netlist) copyOrder(roots []Lit, newLit []Lit) []NodeID {
	const (
		unseen uint8 = iota
		open         // fanins pushed, not yet in order
		done
	)
	state := make([]uint8, len(n.nodes))
	need := func(id NodeID) bool {
		return state[id] == unseen && newLit[id] == noLit && n.nodes[id].Kind == KAnd
	}
	var order, stack []NodeID
	for _, r := range roots {
		if !need(r.Node()) {
			continue
		}
		stack = append(stack[:0], r.Node())
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			switch state[id] {
			case done:
				stack = stack[:len(stack)-1]
			case open:
				stack = stack[:len(stack)-1]
				state[id] = done
				order = append(order, id)
			default:
				state[id] = open
				nd := &n.nodes[id]
				if f := nd.F1.Node(); need(f) {
					stack = append(stack, f)
				}
				if f := nd.F0.Node(); need(f) {
					stack = append(stack, f)
				}
			}
		}
	}
	return order
}
