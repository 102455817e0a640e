package aig

// strashTable is the structural hash behind Netlist.And: an open-addressing
// table over AND node ids, keyed by the node's ordered fanin pair. A slot
// holds the node id (0 = empty — node 0 is the constant, never an AND), and
// a probe confirms a candidate against the node's own fanins, so a slot
// costs four bytes and no key is stored twice.
type strashTable struct {
	slots []NodeID // len is zero or a power of two
	shift uint     // 64 - log2(len(slots))
	count int
}

// strashMinBits sizes the table on first insert (1<<strashMinBits slots).
const strashMinBits = 6

// home returns the first slot to probe for the ordered fanin pair a < b:
// Fibonacci hashing of the packed pair.
func (t *strashTable) home(a, b Lit) uint64 {
	k := uint64(uint32(a))<<32 | uint64(uint32(b))
	return (k * 0x9e3779b97f4a7c15) >> t.shift
}

// find returns the AND node with fanins (a, b), or 0 when absent.
func (t *strashTable) find(nodes []Node, a, b Lit) NodeID {
	if len(t.slots) == 0 {
		return 0
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(a, b); ; i = (i + 1) & mask {
		id := t.slots[i]
		if id == 0 {
			return 0
		}
		if nd := &nodes[id]; nd.F0 == a && nd.F1 == b {
			return id
		}
	}
}

// insert records AND node id with fanins (a, b), which must be absent. The
// table doubles before its load exceeds one half, keeping linear probes
// short.
func (t *strashTable) insert(nodes []Node, id NodeID, a, b Lit) {
	if 2*(t.count+1) > len(t.slots) {
		t.grow(nodes)
	}
	t.place(id, a, b)
	t.count++
}

func (t *strashTable) place(id NodeID, a, b Lit) {
	mask := uint64(len(t.slots) - 1)
	i := t.home(a, b)
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = id
}

func (t *strashTable) grow(nodes []Node) {
	bits := uint(strashMinBits)
	if len(t.slots) > 0 {
		bits = 64 - t.shift + 1
	}
	old := t.slots
	t.slots = make([]NodeID, 1<<bits)
	t.shift = 64 - bits
	for _, id := range old {
		if id != 0 {
			t.place(id, nodes[id].F0, nodes[id].F1)
		}
	}
}
