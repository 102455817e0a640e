// Package pass is the static compile pipeline that runs in front of every
// verification engine: a sequence of netlist-to-netlist reductions over
// aig.Netlist — cone-of-influence extraction, inductive constant sweeping,
// memory-port pruning (§4.3's structural criterion), and structural dedup —
// each of which returns a composable Mapping so counter-example witnesses
// and PBA latch-reason sets found on the compiled netlist translate back to
// the source netlist's node ids, latch indices, and port indices.
package pass

import "emmver/internal/aig"

// Mapping relates a compiled netlist to the source netlist it was derived
// from. Every table points back to source coordinates, except the latch
// node table, which CompiledLatch reads to carry PBA abstractions forward.
// A Mapping from Identity() (or a nil *Mapping) is the identity relation;
// Then composes two mappings across a pipeline.
type Mapping struct {
	identity bool

	// compiled input node id -> source node id.
	inFrom map[aig.NodeID]aig.NodeID
	// source latch node id -> compiled node id, and the inverse.
	laTo, laFrom map[aig.NodeID]aig.NodeID

	// laIdxFrom[ci] = source latch index of compiled latch ci.
	laIdxFrom []int

	// memFrom[cmi] = source memory index.
	memFrom []int

	// readFrom[cmi][cri] = source read-port index (within the source
	// memory memFrom[cmi]). Write ports are analogous.
	readFrom, writeFrom [][]int
}

// Identity returns the identity mapping (compiled netlist == source).
func Identity() *Mapping { return &Mapping{identity: true} }

// IsIdentity reports whether the mapping is the identity relation. A nil
// receiver counts as identity.
func (m *Mapping) IsIdentity() bool { return m == nil || m.identity }

// fromRebuild converts a single aig.Rebuild step's RebuildMap into a
// Mapping.
func fromRebuild(rm *aig.RebuildMap) *Mapping {
	m := &Mapping{
		inFrom:    make(map[aig.NodeID]aig.NodeID, len(rm.Input)),
		laTo:      rm.Latch,
		laFrom:    make(map[aig.NodeID]aig.NodeID, len(rm.Latch)),
		laIdxFrom: rm.LatchIndex,
		memFrom:   rm.Mem,
		readFrom:  rm.Read,
		writeFrom: rm.Write,
	}
	for s, c := range rm.Input {
		m.inFrom[c] = s
	}
	for s, c := range rm.Latch {
		m.laFrom[c] = s
	}
	return m
}

// Then composes m (source -> mid) with next (mid -> compiled) into a
// single source -> compiled mapping.
func (m *Mapping) Then(next *Mapping) *Mapping {
	if m.IsIdentity() {
		return next
	}
	if next.IsIdentity() {
		return m
	}
	out := &Mapping{
		inFrom: make(map[aig.NodeID]aig.NodeID, len(next.inFrom)),
		laTo:   make(map[aig.NodeID]aig.NodeID),
		laFrom: make(map[aig.NodeID]aig.NodeID),
	}
	for c, mid := range next.inFrom {
		if s, ok := m.inFrom[mid]; ok {
			out.inFrom[c] = s
		}
	}
	for s, mid := range m.laTo {
		if c, ok := next.laTo[mid]; ok {
			out.laTo[s] = c
			out.laFrom[c] = s
		}
	}
	out.laIdxFrom = make([]int, len(next.laIdxFrom))
	for ci, midI := range next.laIdxFrom {
		out.laIdxFrom[ci] = m.laIdxFrom[midI]
	}
	out.memFrom = make([]int, len(next.memFrom))
	out.readFrom = make([][]int, len(next.memFrom))
	out.writeFrom = make([][]int, len(next.memFrom))
	for cmi, midMi := range next.memFrom {
		out.memFrom[cmi] = m.memFrom[midMi]
		out.readFrom[cmi] = composePorts(m.readFrom[midMi], next.readFrom[cmi])
		out.writeFrom[cmi] = composePorts(m.writeFrom[midMi], next.writeFrom[cmi])
	}
	return out
}

// composePorts maps compiled-port indices through mid-port indices to
// source-port indices: from1 is mid->source, from2 is compiled->mid.
func composePorts(from1, from2 []int) []int {
	out := make([]int, len(from2))
	for ci, midI := range from2 {
		out[ci] = from1[midI]
	}
	return out
}

// SourceInput translates a compiled primary-input node id back to the
// source netlist's node id.
func (m *Mapping) SourceInput(id aig.NodeID) (aig.NodeID, bool) {
	if m.IsIdentity() {
		return id, true
	}
	s, ok := m.inFrom[id]
	return s, ok
}

// SourceLatch translates a compiled latch node id back to the source
// netlist's node id.
func (m *Mapping) SourceLatch(id aig.NodeID) (aig.NodeID, bool) {
	if m.IsIdentity() {
		return id, true
	}
	s, ok := m.laFrom[id]
	return s, ok
}

// SourceLatchIndex translates a compiled latch index to the source latch
// index.
func (m *Mapping) SourceLatchIndex(i int) int {
	if m.IsIdentity() {
		return i
	}
	return m.laIdxFrom[i]
}

// SourceMem translates a compiled memory index to the source memory index.
func (m *Mapping) SourceMem(mi int) int {
	if m.IsIdentity() {
		return mi
	}
	return m.memFrom[mi]
}

// SourceRead translates (compiled memory, compiled read port) to the
// source read-port index within SourceMem(mi).
func (m *Mapping) SourceRead(mi, ri int) int {
	if m.IsIdentity() {
		return ri
	}
	return m.readFrom[mi][ri]
}

// SourceWrite translates (compiled memory, compiled write port) to the
// source write-port index within SourceMem(mi).
func (m *Mapping) SourceWrite(mi, wi int) int {
	if m.IsIdentity() {
		return wi
	}
	return m.writeFrom[mi][wi]
}

// CompiledLatch translates a source latch node id to the compiled node id.
// ok is false when the pipeline removed (or constant-folded) the latch.
func (m *Mapping) CompiledLatch(id aig.NodeID) (aig.NodeID, bool) {
	if m.IsIdentity() {
		return id, true
	}
	c, ok := m.laTo[id]
	return c, ok
}
