package sat

// watcher is an entry in a literal's watch list for clauses of three or
// more literals. blocker is a literal of the clause that, when already
// true, lets propagation skip visiting the clause entirely. The entry is 8
// bytes (cref + Lit), so a watch list is a dense, pointer-free array.
type watcher struct {
	c       cref
	blocker Lit
}

// binWatcher is an entry in a literal's binary implication list: when the
// watched literal becomes true, imp must be true (the clause is ¬watched ∨
// imp). Binary clauses never need watch repair, so propagation over them is
// a straight scan of this list with no clause visit at all; c is kept only
// as the reason/proof reference.
type binWatcher struct {
	imp Lit
	c   cref
}

// varOrder is a max-heap over variable activities used for VSIDS decisions.
type varOrder struct {
	heap     []Var // binary heap of variables
	indices  []int // var -> position in heap, -1 if absent
	activity *[]float64
}

func newVarOrder(act *[]float64) *varOrder {
	return &varOrder{activity: act}
}

func (o *varOrder) less(a, b Var) bool {
	return (*o.activity)[a] > (*o.activity)[b]
}

func (o *varOrder) grow(n int) {
	for len(o.indices) < n {
		o.indices = append(o.indices, -1)
	}
}

func (o *varOrder) contains(v Var) bool {
	return int(v) < len(o.indices) && o.indices[v] >= 0
}

func (o *varOrder) insert(v Var) {
	o.grow(int(v) + 1)
	if o.contains(v) {
		return
	}
	o.heap = append(o.heap, v)
	o.indices[v] = len(o.heap) - 1
	o.percolateUp(len(o.heap) - 1)
}

func (o *varOrder) empty() bool { return len(o.heap) == 0 }

func (o *varOrder) removeMin() Var {
	top := o.heap[0]
	last := o.heap[len(o.heap)-1]
	o.heap[0] = last
	o.indices[last] = 0
	o.heap = o.heap[:len(o.heap)-1]
	o.indices[top] = -1
	if len(o.heap) > 1 {
		o.percolateDown(0)
	}
	return top
}

// decreased restores the heap property after v's activity increased
// (a larger activity means v should move toward the root).
func (o *varOrder) decreased(v Var) {
	if o.contains(v) {
		o.percolateUp(o.indices[v])
	}
}

func (o *varOrder) percolateUp(i int) {
	v := o.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !o.less(v, o.heap[parent]) {
			break
		}
		o.heap[i] = o.heap[parent]
		o.indices[o.heap[i]] = i
		i = parent
	}
	o.heap[i] = v
	o.indices[v] = i
}

func (o *varOrder) percolateDown(i int) {
	v := o.heap[i]
	n := len(o.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && o.less(o.heap[child+1], o.heap[child]) {
			child++
		}
		if !o.less(o.heap[child], v) {
			break
		}
		o.heap[i] = o.heap[child]
		o.indices[o.heap[i]] = i
		i = child
	}
	o.heap[i] = v
	o.indices[v] = i
}
