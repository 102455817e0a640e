package sat

import (
	"math/rand"
	"testing"
)

// refVarOrder is the decision heap as it was before its entries carried
// their keys: it orders variables by reading the shared activity slice on
// every comparison. It is kept as the reference the keyed heap must match
// pop for pop and position for position, because every solver decision
// (and so every golden conflict count) follows from the heap's layout.
type refVarOrder struct {
	heap     []Var
	indices  []int
	activity *[]float64
}

func (o *refVarOrder) less(a, b Var) bool {
	return (*o.activity)[a] > (*o.activity)[b]
}

func (o *refVarOrder) grow(n int) {
	for len(o.indices) < n {
		o.indices = append(o.indices, -1)
	}
}

func (o *refVarOrder) contains(v Var) bool {
	return int(v) < len(o.indices) && o.indices[v] >= 0
}

func (o *refVarOrder) insert(v Var) {
	o.grow(int(v) + 1)
	if o.contains(v) {
		return
	}
	o.heap = append(o.heap, v)
	o.indices[v] = len(o.heap) - 1
	o.percolateUp(len(o.heap) - 1)
}

func (o *refVarOrder) empty() bool { return len(o.heap) == 0 }

func (o *refVarOrder) removeMin() Var {
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

func (o *refVarOrder) decreased(v Var) {
	if o.contains(v) {
		o.percolateUp(o.indices[v])
	}
}

func (o *refVarOrder) percolateUp(i int) {
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

func (o *refVarOrder) percolateDown(i int) {
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

// refModel is the reference side of the differential test: the reference
// heap plus the activity bookkeeping bumpVar and decayVar did before.
type refModel struct {
	act    []float64
	varInc float64
	order  *refVarOrder
}

func (m *refModel) newVar() {
	v := Var(len(m.act))
	m.act = append(m.act, 0)
	m.order.insert(v)
}

func (m *refModel) bump(v Var) {
	m.act[v] += m.varInc
	if m.act[v] > 1e100 {
		for i := range m.act {
			m.act[i] *= 1e-100
		}
		m.varInc *= 1e-100
	}
	m.order.decreased(v)
}

// TestVarOrderMatchesReference drives the solver's keyed heap (through
// NewVar, bumpVar, decayVar and the insert cancelUntil makes) and the
// reference heap through the same seeded random sequence of inserts, bumps,
// decays and pops. Bumps use few distinct increments and many variables are
// never bumped, so zero and equal keys are common and tie-breaking shows;
// occasional jumps of the increment push activities past 1e100 and force
// rescales, which flush small activities to equal subnormal or zero values.
// After every step both heaps must hold the same variables at the same
// positions, and every pop must return the same variable.
func TestVarOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		ref := &refModel{varInc: 1, order: &refVarOrder{}}
		ref.order.activity = &ref.act
		for i := 0; i < 8+rng.Intn(40); i++ {
			s.NewVar()
			ref.newVar()
		}
		rescales := 0
		for step := 0; step < 4000; step++ {
			n := len(ref.act)
			switch r := rng.Intn(100); {
			case r < 30: // pop, as pickBranchVar does
				if ref.order.empty() != s.order.empty() {
					t.Fatalf("seed %d step %d: empty %v, reference %v", seed, step, s.order.empty(), ref.order.empty())
				}
				if !ref.order.empty() {
					if got, want := s.order.pop(), ref.order.removeMin(); got != want {
						t.Fatalf("seed %d step %d: pop %d, reference %d", seed, step, got, want)
					}
				}
			case r < 55: // re-insert an absent variable, as cancelUntil does
				v := Var(rng.Intn(n))
				if !ref.order.contains(v) {
					s.order.insert(v)
					ref.order.insert(v)
				}
			case r < 85: // bump a variable, in the heap or not
				v := Var(rng.Intn(n))
				before := ref.varInc
				s.bumpVar(v)
				ref.bump(v)
				if ref.varInc < before {
					rescales++
				}
			case r < 92:
				s.decayVar()
				ref.varInc /= 0.99
			case r < 95: // jump the increment toward the rescale threshold
				s.varInc *= 1e25
				ref.varInc *= 1e25
			case r < 97:
				s.NewVar()
				ref.newVar()
			default: // drain most of the heap
				for k := rng.Intn(n); k > 0 && !ref.order.empty(); k-- {
					if got, want := s.order.pop(), ref.order.removeMin(); got != want {
						t.Fatalf("seed %d step %d: drain pop %d, reference %d", seed, step, got, want)
					}
				}
			}
			checkSameHeap(t, seed, step, s, ref)
		}
		if rescales == 0 {
			t.Fatalf("seed %d: no activity rescale happened", seed)
		}
	}
}

func checkSameHeap(t *testing.T, seed int64, step int, s *Solver, ref *refModel) {
	t.Helper()
	o := s.order
	if len(o.vars) != len(ref.order.heap) || len(o.keys) != len(o.vars)+1 || o.keys[len(o.vars)] != 0 || len(o.slot) != len(ref.act) {
		t.Fatalf("seed %d step %d: heap sizes vars=%d keys=%d sentinel=%d, reference %d",
			seed, step, len(o.vars), len(o.keys), o.keys[len(o.keys)-1], len(ref.order.heap))
	}
	for i, v := range o.vars {
		if v != ref.order.heap[i] {
			t.Fatalf("seed %d step %d: position %d holds %d, reference %d", seed, step, i, v, ref.order.heap[i])
		}
		if o.keys[i] != actKey(ref.act[v]) {
			t.Fatalf("seed %d step %d: key of %d is %x, activity bits %x", seed, step, v, o.keys[i], actKey(ref.act[v]))
		}
	}
	for v := range ref.act {
		want, got := -1, -1
		if v < len(ref.order.indices) {
			want = ref.order.indices[v]
		}
		if k := o.slot[v]; k&inHeap != 0 {
			got = int(k &^ inHeap)
		}
		if got != want {
			t.Fatalf("seed %d step %d: position of %d is %d, reference %d", seed, step, v, got, want)
		}
		if a := o.activity(Var(v)); a != ref.act[v] {
			t.Fatalf("seed %d step %d: activity of %d is %g, reference %g", seed, step, v, a, ref.act[v])
		}
	}
}
