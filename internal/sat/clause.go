package sat

import "math"

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

// varOrder is the VSIDS decision heap: a binary max-heap of variables keyed
// by activity. It also holds the activities. Each heap entry carries its key
// beside it, in a parallel slice, so a sift compares the keys it already
// holds instead of looking every variable up in a separate activity slice. A key is the
// IEEE-754 bit pattern of the activity: activities are non-negative and
// never NaN, and on such values the unsigned bit patterns order exactly as
// the floats do, so every comparison has the outcome the float comparison
// would have.
//
// keys and vars are parallel slices; keys holds one more element than vars,
// a zero sentinel at keys[len(vars)], so a sift-down reads a right child's
// key without first testing that the child exists (a zero key never beats
// the left child, and ties go to the left child).
//
// slot has one word per variable: inHeap|position while the variable is in
// the heap, its key while it is not. A key never has the top bit set, the
// sign bit of a non-negative float, so one word serves for both, and the
// heap with its activities costs 20 bytes per variable, as a heap indexed
// by an activity slice does.
type varOrder struct {
	keys []uint64 // keys[i] is the key of vars[i]; keys[len(vars)] == 0
	vars []Var
	slot []uint64 // var -> inHeap|position, or its key when absent
}

const inHeap = 1 << 63

// Activities are rescaled by rescaleFactor once one passes rescaleAbove.
const (
	rescaleAbove  = 1e100
	rescaleFactor = 1e-100
)

func newVarOrder() *varOrder {
	return &varOrder{keys: []uint64{0}}
}

// actKey is the heap key of an activity.
func actKey(a float64) uint64 { return math.Float64bits(a) }

// add inserts a new variable, which must be v == len(o.slot), with
// activity 0.
func (o *varOrder) add(v Var) {
	o.slot = append(o.slot, 0)
	o.insert(v)
}

func (o *varOrder) contains(v Var) bool { return o.slot[v]&inHeap != 0 }

// activity returns v's activity, in the heap or not.
func (o *varOrder) activity(v Var) float64 {
	k := o.slot[v]
	if k&inHeap != 0 {
		k = o.keys[k&^inHeap]
	}
	return math.Float64frombits(k)
}

func (o *varOrder) empty() bool { return len(o.vars) == 0 }

// insert puts back v, which must be absent, with the key it left with.
func (o *varOrder) insert(v Var) {
	i := len(o.vars)
	o.vars = append(o.vars, v)
	o.keys = append(o.keys, 0) // the new sentinel; keys[i] is set by siftUp
	o.siftUp(i, v, o.slot[v])
}

// pop removes and returns the variable with the largest key.
func (o *varOrder) pop() Var {
	vars, keys := o.vars, o.keys
	n := len(vars) - 1
	top, topKey := vars[0], keys[0]
	last, k := vars[n], keys[n]
	keys[n] = 0
	o.vars, o.keys = vars[:n], keys[:n+1]
	if n > 0 {
		o.siftDown(0, last, k)
	}
	o.slot[top] = topKey
	return top
}

// bump adds inc to v's activity and moves v toward the root if it is in
// the heap. When the sum passes rescaleAbove, every activity, v's sum
// included, is first multiplied by rescaleFactor, and bump reports true so
// the caller scales its increment too. Scaling by a positive factor never
// reverses an order, so the heap shape stays valid.
func (o *varOrder) bump(v Var, inc float64) (rescaled bool) {
	a := o.activity(v) + inc
	if a > rescaleAbove {
		for i, k := range o.keys[:len(o.vars)] {
			o.keys[i] = actKey(math.Float64frombits(k) * rescaleFactor)
		}
		for u, k := range o.slot {
			if k&inHeap == 0 {
				o.slot[u] = actKey(math.Float64frombits(k) * rescaleFactor)
			}
		}
		a *= rescaleFactor
		rescaled = true
	}
	if k := o.slot[v]; k&inHeap != 0 {
		o.siftUp(int(k&^inHeap), v, actKey(a))
	} else {
		o.slot[v] = actKey(a)
	}
	return rescaled
}

// siftUp places v with key k at position i or above it.
func (o *varOrder) siftUp(i int, v Var, k uint64) {
	keys, vars, slot := o.keys, o.vars, o.slot
	for i > 0 {
		parent := (i - 1) >> 1
		if k <= keys[parent] {
			break
		}
		pv := vars[parent]
		keys[i], vars[i] = keys[parent], pv
		slot[pv] = inHeap | uint64(i)
		i = parent
	}
	keys[i], vars[i] = k, v
	slot[v] = inHeap | uint64(i)
}

// siftDown places v with key k at position i or below it. The larger
// child is chosen without a branch (the choice is unpredictable, and a
// mispredicted jump cost more than the sift itself); on equal keys it stays
// the left child.
func (o *varOrder) siftDown(i int, v Var, k uint64) {
	keys, vars, slot := o.keys, o.vars, o.slot
	n := len(vars)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		ck, rk := keys[c], keys[c+1] // keys[n] is the zero sentinel
		right := 0
		if rk > ck {
			right = 1
		}
		c += right
		ck = max(ck, rk)
		if ck <= k {
			break
		}
		cv := vars[c]
		keys[i], vars[i] = ck, cv
		slot[cv] = inHeap | uint64(i)
		i = c
	}
	keys[i], vars[i] = k, v
	slot[v] = inHeap | uint64(i)
}
