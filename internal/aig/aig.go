// Package aig provides an and-inverter-graph netlist for sequential designs
// with first-class embedded memory modules.
//
// A netlist is a DAG of 2-input AND nodes over primary inputs, latches, the
// constant FALSE, and memory read-data nodes; inversion is encoded on edges
// (complemented literals). Latches have a next-state function and an initial
// value (0, 1 or X). Memory modules are declared with address/data widths and
// any number of read and write ports; their port nets (address, enable,
// write-data) are ordinary literals of the netlist, while read-data bits are
// dedicated nodes whose value is defined by the memory semantics — either by
// EMM constraints (package core), by explicit expansion into latches
// (package expmem), or by concrete simulation (package sim).
package aig

import "fmt"

// NodeID identifies a node in the netlist. Node 0 is the constant FALSE.
type NodeID int32

// Lit is a possibly-complemented reference to a node: lit = 2*node + inv.
type Lit int32

// Constant literals.
const (
	False Lit = 0 // constant-false literal (node 0, plain)
	True  Lit = 1 // constant-true literal (node 0, complemented)
)

// MkLit builds a literal referring to node n, complemented when inv is true.
func MkLit(n NodeID, inv bool) Lit {
	l := Lit(n) << 1
	if inv {
		l |= 1
	}
	return l
}

// Node returns the node the literal refers to.
func (l Lit) Node() NodeID { return NodeID(l >> 1) }

// Inverted reports whether the literal is complemented.
func (l Lit) Inverted() bool { return l&1 != 0 }

// Not returns the complement of l.
func (l Lit) Not() Lit { return l ^ 1 }

// XorInv complements l when inv is true.
func (l Lit) XorInv(inv bool) Lit {
	if inv {
		return l ^ 1
	}
	return l
}

// String renders the literal for debugging.
func (l Lit) String() string {
	switch l {
	case False:
		return "0"
	case True:
		return "1"
	}
	if l.Inverted() {
		return fmt.Sprintf("!n%d", l.Node())
	}
	return fmt.Sprintf("n%d", l.Node())
}

// Kind classifies netlist nodes.
type Kind uint8

// Node kinds.
const (
	KConst   Kind = iota // the constant FALSE (node 0 only)
	KInput               // primary input
	KLatch               // state element
	KAnd                 // 2-input AND gate
	KMemRead             // one bit of a memory read-data bus
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KConst:
		return "const"
	case KInput:
		return "input"
	case KLatch:
		return "latch"
	case KAnd:
		return "and"
	case KMemRead:
		return "memread"
	}
	return "?"
}

// Node is one vertex of the graph. F0/F1 are meaningful for KAnd only.
type Node struct {
	Kind   Kind
	F0, F1 Lit
}

// Init is a latch initial value.
type Init uint8

// Latch initial values.
const (
	Init0 Init = iota // reset to 0
	Init1             // reset to 1
	InitX             // unconstrained initial value
)

// String names the init value.
func (i Init) String() string {
	switch i {
	case Init0:
		return "0"
	case Init1:
		return "1"
	}
	return "x"
}

// Latch is a state element. Next is assigned via Netlist.SetNext after all
// combinational logic has been built.
type Latch struct {
	Node NodeID
	Next Lit
	Init Init
	Name string
}

// MemInit describes how a memory array is initialized.
type MemInit uint8

// Memory initialization modes.
const (
	MemZero      MemInit = iota // every word starts at 0
	MemArbitrary                // unconstrained initial contents
	MemImage                    // initialized from Memory.Image
)

// String names the memory init mode.
func (m MemInit) String() string {
	switch m {
	case MemZero:
		return "zero"
	case MemArbitrary:
		return "arbitrary"
	}
	return "image"
}

// WritePort is a synchronous write port: when En holds at cycle t, word
// Data is stored at Addr and becomes visible to reads from cycle t+1 on.
type WritePort struct {
	Addr []Lit // AW bits, LSB first
	Data []Lit // DW bits, LSB first
	En   Lit
}

// ReadPort is an asynchronous (same-cycle) read port: when En holds, Data
// carries the word most recently written at Addr (or the initial contents).
// When En is low, Data is unconstrained.
type ReadPort struct {
	Addr []Lit
	En   Lit
	Data []NodeID // KMemRead nodes, DW of them, LSB first
}

// DataLits returns the read-data bus as plain literals.
func (rp *ReadPort) DataLits() []Lit {
	out := make([]Lit, len(rp.Data))
	for i, n := range rp.Data {
		out[i] = MkLit(n, false)
	}
	return out
}

// ReadRef locates a memory read-data node: the index of its memory in
// Netlist.Memories and of its port in that memory's Reads.
type ReadRef struct{ Mem, Port int32 }

// ReadRefs returns a node-indexed slice that locates every read-data node.
// Entries of other nodes are zero and meaningless.
func (n *Netlist) ReadRefs() []ReadRef {
	refs := make([]ReadRef, len(n.nodes))
	for mi, m := range n.Memories {
		for ri, rp := range m.Reads {
			for _, dn := range rp.Data {
				refs[dn] = ReadRef{int32(mi), int32(ri)}
			}
		}
	}
	return refs
}

// Memory is an embedded memory module with R read and W write ports.
type Memory struct {
	Name   string
	AW, DW int
	Init   MemInit
	Image  []uint64 // initial contents when Init == MemImage (len 2^AW)
	Writes []*WritePort
	Reads  []*ReadPort
}

// Words returns the number of addressable words, 2^AW.
func (m *Memory) Words() int { return 1 << uint(m.AW) }

// Property is a safety property: OK must hold in every reachable cycle.
type Property struct {
	Name string
	OK   Lit
}

// Netlist is a sequential circuit.
type Netlist struct {
	Name     string
	nodes    []Node
	Inputs   []NodeID
	Latches  []*Latch
	Memories []*Memory
	Props    []Property
	// Constraints are literals assumed to hold in every cycle (environment
	// assumptions / proven invariants applied as constraints).
	Constraints []Lit

	inputName map[NodeID]string
	strash    strashTable
	latchOf   map[NodeID]*Latch
}

// New creates an empty netlist containing only the constant node.
func New(name string) *Netlist {
	n := &Netlist{
		Name:      name,
		inputName: make(map[NodeID]string),
		latchOf:   make(map[NodeID]*Latch),
	}
	n.nodes = append(n.nodes, Node{Kind: KConst})
	return n
}

// NumNodes returns the number of nodes including the constant.
func (n *Netlist) NumNodes() int { return len(n.nodes) }

// NumAnds returns the number of AND gates.
func (n *Netlist) NumAnds() int {
	c := 0
	for i := range n.nodes {
		if n.nodes[i].Kind == KAnd {
			c++
		}
	}
	return c
}

// NodeAt returns the node with the given id.
func (n *Netlist) NodeAt(id NodeID) Node { return n.nodes[id] }

// Kind returns the kind of the node underlying l.
func (n *Netlist) Kind(l Lit) Kind { return n.nodes[l.Node()].Kind }

// LatchOf returns the latch record for a latch node, or nil.
func (n *Netlist) LatchOf(id NodeID) *Latch { return n.latchOf[id] }

// InputName returns the declared name of an input node ("" if unnamed).
func (n *Netlist) InputName(id NodeID) string { return n.inputName[id] }

func (n *Netlist) newNode(k Kind, f0, f1 Lit) NodeID {
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, Node{Kind: k, F0: f0, F1: f1})
	return id
}

// NewInput declares a primary input and returns its literal.
func (n *Netlist) NewInput(name string) Lit {
	id := n.newNode(KInput, 0, 0)
	n.Inputs = append(n.Inputs, id)
	if name != "" {
		n.inputName[id] = name
	}
	return MkLit(id, false)
}

// NewLatch declares a latch with the given reset value and returns its
// output literal. The next-state function must be set with SetNext before
// the netlist is used.
func (n *Netlist) NewLatch(name string, init Init) Lit {
	id := n.newNode(KLatch, 0, 0)
	l := &Latch{Node: id, Next: MkLit(id, false), Init: init, Name: name}
	n.Latches = append(n.Latches, l)
	n.latchOf[id] = l
	return MkLit(id, false)
}

// SetNext assigns the next-state function of a latch output literal. The
// literal must be a plain (non-complemented) latch output.
func (n *Netlist) SetNext(latchOut, next Lit) {
	if latchOut.Inverted() {
		panic("aig: SetNext on complemented literal")
	}
	l := n.latchOf[latchOut.Node()]
	if l == nil {
		panic("aig: SetNext on non-latch")
	}
	l.Next = next
}

// NewMemory declares a memory module with the given geometry. Ports are
// added with NewReadPort / NewWritePort.
func (n *Netlist) NewMemory(name string, aw, dw int, init MemInit) *Memory {
	if aw <= 0 || aw > 30 || dw <= 0 || dw > 64 {
		panic(fmt.Sprintf("aig: unsupported memory geometry AW=%d DW=%d", aw, dw))
	}
	m := &Memory{Name: name, AW: aw, DW: dw, Init: init}
	n.Memories = append(n.Memories, m)
	return m
}

// NewReadPort adds a read port to m and returns it. The port's Data nodes
// are allocated immediately (so logic may consume them); Addr and En must be
// assigned with SetReadAddr before use.
func (n *Netlist) NewReadPort(m *Memory) *ReadPort {
	rp := &ReadPort{En: False}
	rp.Data = make([]NodeID, m.DW)
	for i := range rp.Data {
		rp.Data[i] = n.newNode(KMemRead, 0, 0)
	}
	m.Reads = append(m.Reads, rp)
	return rp
}

// SetReadAddr wires the address and enable of a read port.
func (n *Netlist) SetReadAddr(m *Memory, rp *ReadPort, addr []Lit, en Lit) {
	if len(addr) != m.AW {
		panic(fmt.Sprintf("aig: read address width %d != AW %d", len(addr), m.AW))
	}
	rp.Addr = append([]Lit(nil), addr...)
	rp.En = en
}

// NewWritePort adds a write port to m.
func (n *Netlist) NewWritePort(m *Memory, addr, data []Lit, en Lit) *WritePort {
	if len(addr) != m.AW {
		panic(fmt.Sprintf("aig: write address width %d != AW %d", len(addr), m.AW))
	}
	if len(data) != m.DW {
		panic(fmt.Sprintf("aig: write data width %d != DW %d", len(data), m.DW))
	}
	wp := &WritePort{
		Addr: append([]Lit(nil), addr...),
		Data: append([]Lit(nil), data...),
		En:   en,
	}
	m.Writes = append(m.Writes, wp)
	return wp
}

// AddProperty registers a safety property "ok holds in every cycle".
func (n *Netlist) AddProperty(name string, ok Lit) {
	n.Props = append(n.Props, Property{Name: name, OK: ok})
}

// AddConstraint registers an environment constraint assumed every cycle.
func (n *Netlist) AddConstraint(c Lit) {
	n.Constraints = append(n.Constraints, c)
}

// And returns a literal for the conjunction of a and b, with constant
// folding and structural hashing.
func (n *Netlist) And(a, b Lit) Lit {
	// Constant and trivial folding.
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
	if id := n.strash.find(n.nodes, a, b); id != 0 {
		return MkLit(id, false)
	}
	id := n.newNode(KAnd, a, b)
	n.strash.insert(n.nodes, id, a, b)
	return MkLit(id, false)
}

// Not returns the complement of a.
func (n *Netlist) Not(a Lit) Lit { return a.Not() }

// Or returns a ∨ b.
func (n *Netlist) Or(a, b Lit) Lit { return n.And(a.Not(), b.Not()).Not() }

// Xor returns a ⊕ b.
func (n *Netlist) Xor(a, b Lit) Lit {
	return n.Or(n.And(a, b.Not()), n.And(a.Not(), b))
}

// Xnor returns a ≡ b.
func (n *Netlist) Xnor(a, b Lit) Lit { return n.Xor(a, b).Not() }

// Mux returns sel ? t : e.
func (n *Netlist) Mux(sel, t, e Lit) Lit {
	if t == e {
		return t
	}
	return n.Or(n.And(sel, t), n.And(sel.Not(), e))
}

// Implies returns a → b.
func (n *Netlist) Implies(a, b Lit) Lit { return n.Or(a.Not(), b) }

// Ands returns the conjunction of all literals (True for none).
func (n *Netlist) Ands(ls ...Lit) Lit {
	out := True
	for _, l := range ls {
		out = n.And(out, l)
	}
	return out
}

// Ors returns the disjunction of all literals (False for none).
func (n *Netlist) Ors(ls ...Lit) Lit {
	out := False
	for _, l := range ls {
		out = n.Or(out, l)
	}
	return out
}

// SupportLatches returns the set of latch nodes in the combinational
// transitive fanin of the given literals. Memory read-data nodes are treated
// as cut points (their cone is the memory's, not the main module's).
func (n *Netlist) SupportLatches(roots ...Lit) map[NodeID]bool {
	out := make(map[NodeID]bool)
	seen := make([]bool, len(n.nodes))
	var stack []NodeID
	push := func(l Lit) {
		id := l.Node()
		if !seen[id] {
			seen[id] = true
			stack = append(stack, id)
		}
	}
	for _, r := range roots {
		push(r)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch n.nodes[id].Kind {
		case KLatch:
			out[id] = true
		case KAnd:
			push(n.nodes[id].F0)
			push(n.nodes[id].F1)
		}
	}
	return out
}

// MemoryControlLatches returns, for each memory, the set of latches in the
// combinational fanin of that memory's interface signals (all ports'
// addresses, enables, and write data). Used by PBA to decide whether a
// memory module is relevant at a given analysis depth (§4.3).
func (n *Netlist) MemoryControlLatches(m *Memory) map[NodeID]bool {
	var roots []Lit
	for _, wp := range m.Writes {
		roots = append(roots, wp.Addr...)
		roots = append(roots, wp.Data...)
		roots = append(roots, wp.En)
	}
	for _, rp := range m.Reads {
		roots = append(roots, rp.Addr...)
		roots = append(roots, rp.En)
	}
	return n.SupportLatches(roots...)
}

// PortControlLatches returns the latch support of one read or write port's
// interface signals.
func (n *Netlist) PortControlLatches(addr []Lit, en Lit, data []Lit) map[NodeID]bool {
	roots := append(append([]Lit{en}, addr...), data...)
	return n.SupportLatches(roots...)
}

// Stats summarizes the netlist, mirroring how the paper reports design
// sizes ("X latches, Y inputs, ~Z 2-input gates").
type Stats struct {
	Inputs   int
	Latches  int
	Ands     int
	Memories int
	MemBits  int // total memory bits if expanded explicitly
}

// Stats computes netlist statistics.
func (n *Netlist) Stats() Stats {
	s := Stats{
		Inputs:   len(n.Inputs),
		Latches:  len(n.Latches),
		Ands:     n.NumAnds(),
		Memories: len(n.Memories),
	}
	for _, m := range n.Memories {
		s.MemBits += m.Words() * m.DW
	}
	return s
}

// String renders the stats like the paper's design descriptions.
func (s Stats) String() string {
	return fmt.Sprintf("%d latches, %d inputs, %d 2-input gates, %d memories (%d bits)",
		s.Latches, s.Inputs, s.Ands, s.Memories, s.MemBits)
}
