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

	// LatchConst substitutes a latch (by its node id) with a constant
	// literal instead of declaring it. It overrides KeepLatch: a latch in
	// LatchConst is never declared. The caller is responsible for the
	// substitution being sound (e.g. proved inductively constant).
	LatchConst map[NodeID]Lit

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
// netlist, in both directions. Index slices use -1 for "dropped".
type RebuildMap struct {
	// Input/Latch map source input/latch node ids to rebuilt node ids
	// (absent = dropped or substituted by a constant).
	Input map[NodeID]NodeID
	Latch map[NodeID]NodeID

	// LatchIndex maps rebuilt latch index -> source latch index.
	LatchIndex []int
	// LatchOf maps source latch index -> rebuilt latch index or -1.
	LatchOf []int

	// Mem maps rebuilt memory index -> source memory index; MemOf is the
	// inverse (source -> rebuilt or -1).
	Mem   []int
	MemOf []int

	// Read[mi][ri] maps (rebuilt memory, rebuilt read port) -> source
	// read-port index; ReadOf[smi][sri] is the inverse (-1 = dropped).
	// Write/WriteOf are the same for write ports.
	Read    [][]int
	ReadOf  [][]int
	Write   [][]int
	WriteOf [][]int

	// Prop maps rebuilt property index -> source property index.
	Prop []int
}

// Rebuild copies n into a fresh netlist, keeping only the elements the
// spec selects and re-deriving every gate through And() (so the result is
// structurally hashed and constant-folded even for an identity spec). All
// environment constraints are always preserved. The returned map relates
// the two netlists in both directions.
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
		Input:   make(map[NodeID]NodeID),
		Latch:   make(map[NodeID]NodeID),
		LatchOf: make([]int, len(n.Latches)),
		MemOf:   make([]int, len(n.Memories)),
		ReadOf:  make([][]int, len(n.Memories)),
		WriteOf: make([][]int, len(n.Memories)),
	}
	// newLit maps a source node id to its rebuilt literal; noLit marks a
	// node not (yet) copied.
	newLit := make([]Lit, len(n.nodes))
	for i := range newLit {
		newLit[i] = noLit
	}
	newLit[0] = False
	for id, l := range sp.LatchConst {
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
		rm.LatchOf[i] = -1
		if _, sub := sp.LatchConst[l.Node]; sub || !keepLatch(i) {
			continue
		}
		nl := out.NewLatch(l.Name, l.Init)
		newLit[l.Node] = nl
		rm.Latch[l.Node] = nl.Node()
		rm.LatchOf[i] = len(rm.LatchIndex)
		rm.LatchIndex = append(rm.LatchIndex, i)
	}

	newMems := make([]*Memory, len(n.Memories))
	for mi, m := range n.Memories {
		rm.MemOf[mi] = -1
		rm.ReadOf[mi] = constSlice(len(m.Reads), -1)
		rm.WriteOf[mi] = constSlice(len(m.Writes), -1)
		if !keepMem(mi) {
			continue
		}
		nm := out.NewMemory(m.Name, m.AW, m.DW, m.Init)
		nm.Image = m.Image
		newMems[mi] = nm
		rm.MemOf[mi] = len(rm.Mem)
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
			rm.ReadOf[mi][ri] = len(reads)
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
		if node.Kind != KAnd {
			panic("aig: rebuild reached an undeclared non-gate node")
		}
		v := out.And(copyLit(node.F0), copyLit(node.F1))
		newLit[id] = v
		return v.XorInv(l.Inverted())
	}

	for i, l := range n.Latches {
		if rm.LatchOf[i] >= 0 {
			out.SetNext(newLit[l.Node], copyLit(l.Next))
		}
	}
	for mi, m := range n.Memories {
		nm := newMems[mi]
		if nm == nil {
			continue
		}
		for nri, ri := range rm.Read[rm.MemOf[mi]] {
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
			rm.WriteOf[mi][wi] = len(writes)
			writes = append(writes, wi)
		}
		rm.Write = append(rm.Write, writes)
	}

	props := sp.Props
	if props == nil {
		props = make([]int, len(n.Props))
		for i := range props {
			props[i] = i
		}
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

func constSlice(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}
