// Package btor2 reads and writes a subset of the BTOR2 word-level
// model-checking format (Niemetz, Preiner, Wolf, Biere — CAV 2018). BTOR2
// is the natural modern interchange for this library because it has
// first-class *array* sorts: BTOR2 array states map directly onto embedded
// memory modules, `read` nodes onto read ports, and `write`-shaped next
// functions onto write ports — so HWMCC-style memory benchmarks can be
// verified with EMM instead of bit-blasted array expansion.
//
// Supported node kinds:
//
//	sort bitvec/array, input, state, init, next, bad, constraint, output,
//	const/constd/consth/zero/one/ones,
//	not/and/or/xor/nand/nor/xnor/neg/redand/redor/redxor/implies/iff,
//	add/sub/mul/eq/neq/ult/ulte/ugt/ugte/slice/concat/uext/ite/sll/srl,
//	read/write.
//
// Array restrictions: an array state's next function must be the state
// itself, a (possibly nested) write to it, or an ite choosing between
// such writes and the state — the patterns synthesizable hardware
// produces. Array inits must be a constant 0 (zeroed memory) or absent
// (arbitrary contents).
package btor2

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"emmver/internal/aig"
	"emmver/internal/rtl"
)

// node is a parsed BTOR2 line.
type node struct {
	id   int64
	kind string
	args []int64 // raw operand ids (sign encodes negation for bitvecs)
	sort int64
	str  string // constant payload or symbol
	line int
}

type sort struct {
	isArray   bool
	width     int   // bitvec width
	idx, elem int64 // array sorts
}

// Read parses BTOR2 text into a netlist.
func Read(r io.Reader) (*aig.Netlist, error) {
	p := &parser{
		m:      rtl.NewModule("btor2"),
		sorts:  map[int64]sort{},
		nodes:  map[int64]*node{},
		vals:   map[int64]rtl.Vec{},
		arrays: map[int64]*arrayState{},
	}
	if err := p.parse(r); err != nil {
		return nil, err
	}
	if err := p.build(); err != nil {
		return nil, err
	}
	return p.m.N, nil
}

type arrayState struct {
	def    *node
	mem    *rtl.Mem
	aw, dw int
	nextID int64 // raw id of the next function (0 if none)
}

type parser struct {
	m      *rtl.Module
	sorts  map[int64]sort
	nodes  map[int64]*node
	order  []*node
	vals   map[int64]rtl.Vec
	arrays map[int64]*arrayState
	regs   map[int64]*rtl.Reg
	inits  map[int64]*node // state id -> init node
	nexts  map[int64]*node // state id -> next node
	bads   []*node
	constr []*node
}

// maxLine caps the length of one source line. The scanner starts from its
// small default buffer and grows it only for long lines.
const maxLine = 16 << 20

func (p *parser) parse(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		id, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil || id <= 0 {
			return fmt.Errorf("btor2 line %d: bad node id %q", lineNo, fields[0])
		}
		if len(fields) < 2 {
			return fmt.Errorf("btor2 line %d: missing kind", lineNo)
		}
		n := &node{id: id, kind: fields[1], line: lineNo}
		rest := fields[2:]

		switch n.kind {
		case "sort":
			if len(rest) < 2 {
				return fmt.Errorf("btor2 line %d: short sort", lineNo)
			}
			switch rest[0] {
			case "bitvec":
				w, err := strconv.Atoi(rest[1])
				if err != nil || w <= 0 || w > 64 {
					return fmt.Errorf("btor2 line %d: bad bitvec width", lineNo)
				}
				p.sorts[id] = sort{width: w}
			case "array":
				if len(rest) < 3 {
					return fmt.Errorf("btor2 line %d: short array sort", lineNo)
				}
				idx, err1 := strconv.ParseInt(rest[1], 10, 64)
				elem, err2 := strconv.ParseInt(rest[2], 10, 64)
				if err1 != nil || err2 != nil {
					return fmt.Errorf("btor2 line %d: bad array sort", lineNo)
				}
				p.sorts[id] = sort{isArray: true, idx: idx, elem: elem}
			default:
				return fmt.Errorf("btor2 line %d: unknown sort %q", lineNo, rest[0])
			}
			continue
		case "const", "constd", "consth":
			if len(rest) < 2 {
				return fmt.Errorf("btor2 line %d: short constant", lineNo)
			}
			n.sort, _ = strconv.ParseInt(rest[0], 10, 64)
			n.str = rest[1]
		case "zero", "one", "ones":
			if len(rest) < 1 {
				return fmt.Errorf("btor2 line %d: short constant", lineNo)
			}
			n.sort, _ = strconv.ParseInt(rest[0], 10, 64)
		case "input", "state":
			if len(rest) < 1 {
				return fmt.Errorf("btor2 line %d: short decl", lineNo)
			}
			n.sort, _ = strconv.ParseInt(rest[0], 10, 64)
			if len(rest) > 1 {
				n.str = rest[1]
			}
		case "bad", "constraint", "output", "fair", "justice":
			for _, f := range rest {
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					break // trailing symbol
				}
				n.args = append(n.args, v)
			}
		default:
			// Operation: sort followed by operands (slice carries two
			// trailing integers that are not node ids but bounds; keep
			// them as args too).
			if len(rest) < 1 {
				return fmt.Errorf("btor2 line %d: short op", lineNo)
			}
			n.sort, err = strconv.ParseInt(rest[0], 10, 64)
			if err != nil {
				return fmt.Errorf("btor2 line %d: bad sort ref", lineNo)
			}
			for _, f := range rest[1:] {
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					break // symbol
				}
				n.args = append(n.args, v)
			}
		}
		if _, dup := p.nodes[id]; dup {
			return fmt.Errorf("btor2 line %d: duplicate node id %d", lineNo, id)
		}
		p.nodes[id] = n
		p.order = append(p.order, n)
	}
	return sc.Err()
}

// build performs the second pass: declare states, evaluate bitvec
// expressions, infer memory ports, wire nexts/inits, register properties.
func (p *parser) build() error {
	p.regs = map[int64]*rtl.Reg{}
	p.inits = map[int64]*node{}
	p.nexts = map[int64]*node{}

	// Index init/next/bad/constraint.
	for _, n := range p.order {
		switch n.kind {
		case "init":
			if len(n.args) < 2 {
				return fmt.Errorf("btor2 line %d: short init", n.line)
			}
			p.inits[n.args[0]] = n
		case "next":
			if len(n.args) < 2 {
				return fmt.Errorf("btor2 line %d: short next", n.line)
			}
			p.nexts[n.args[0]] = n
		case "bad":
			p.bads = append(p.bads, n)
		case "constraint":
			p.constr = append(p.constr, n)
		}
	}

	// Declare inputs, states, and memories in order.
	for _, n := range p.order {
		switch n.kind {
		case "input":
			s, err := p.bvSort(n)
			if err != nil {
				return err
			}
			name := n.str
			if name == "" {
				name = fmt.Sprintf("in%d", n.id)
			}
			p.vals[n.id] = p.m.Input(name, s.width)
		case "state":
			s, ok := p.sorts[n.sort]
			if !ok {
				return fmt.Errorf("btor2 line %d: unknown sort %d", n.line, n.sort)
			}
			if s.isArray {
				if err := p.declareArray(n, s); err != nil {
					return err
				}
				continue
			}
			name := n.str
			if name == "" {
				name = fmt.Sprintf("s%d", n.id)
			}
			init, hasInit := p.inits[n.id]
			var reg *rtl.Reg
			switch {
			case !hasInit:
				reg = p.m.RegisterX(name, s.width)
			default:
				cv, ok := p.constValueOf(init.args[1])
				if !ok {
					return fmt.Errorf("btor2 line %d: non-constant state init is not supported", init.line)
				}
				reg = p.m.Register(name, s.width, cv)
			}
			p.regs[n.id] = reg
			p.vals[n.id] = reg.Q
		}
	}

	// Evaluate everything else on demand; then wire nexts, in declaration
	// order so that the same source always builds the same netlist.
	for _, n := range p.order {
		reg, ok := p.regs[n.id]
		if !ok {
			continue
		}
		nx, ok := p.nexts[n.id]
		if !ok {
			reg.SetNext(reg.Q) // stateless hold
			continue
		}
		v, err := p.value(nx.args[1])
		if err != nil {
			return err
		}
		reg.SetNext(p.adapt(v, len(reg.Q)))
	}
	for _, n := range p.order {
		as, ok := p.arrays[n.id]
		if !ok || as.nextID == 0 {
			continue
		}
		if err := p.buildArrayNext(n.id, as); err != nil {
			return err
		}
	}
	var regs []*rtl.Reg
	for _, n := range p.order {
		if r, ok := p.regs[n.id]; ok {
			regs = append(regs, r)
		}
	}
	p.m.Done(regs...)

	for i, b := range p.bads {
		v, err := p.value(b.args[0])
		if err != nil {
			return err
		}
		p.m.AssertAlways(fmt.Sprintf("bad%d", i), p.m.NonZero(v).Not())
	}
	for _, c := range p.constr {
		v, err := p.value(c.args[0])
		if err != nil {
			return err
		}
		p.m.Assume(p.m.NonZero(v))
	}
	return nil
}

func (p *parser) bvSort(n *node) (sort, error) {
	s, ok := p.sorts[n.sort]
	if !ok || s.isArray {
		return sort{}, fmt.Errorf("btor2 line %d: expected bitvec sort", n.line)
	}
	return s, nil
}

func (p *parser) declareArray(n *node, s sort) error {
	idxS, ok1 := p.sorts[s.idx]
	elemS, ok2 := p.sorts[s.elem]
	if !ok1 || !ok2 || idxS.isArray || elemS.isArray {
		return fmt.Errorf("btor2 line %d: bad array sort", n.line)
	}
	name := n.str
	if name == "" {
		name = fmt.Sprintf("mem%d", n.id)
	}
	init := aig.MemArbitrary
	if iv, hasInit := p.inits[n.id]; hasInit {
		cv, ok := p.constValueOf(iv.args[1])
		if !ok || cv != 0 {
			return fmt.Errorf("btor2 line %d: array init must be constant 0", iv.line)
		}
		init = aig.MemZero
	}
	as := &arrayState{
		def: n,
		mem: p.m.Memory(name, idxS.width, elemS.width, init),
		aw:  idxS.width,
		dw:  elemS.width,
	}
	if nx, ok := p.nexts[n.id]; ok {
		as.nextID = nx.args[1]
	}
	p.arrays[n.id] = as
	return nil
}

// buildArrayNext pattern-matches the array next function into write
// ports. Writes are collected during the walk and installed innermost
// first: in a nested write chain the outermost write is applied last (it
// overrides), and our port semantics give same-cycle priority to the
// highest-indexed port, so the outermost write must get the highest
// index.
func (p *parser) buildArrayNext(stateID int64, as *arrayState) error {
	type pendingWrite struct {
		cond       aig.Lit
		addr, data rtl.Vec
	}
	var writes []pendingWrite // outermost first
	var walk func(id int64, cond aig.Lit) error
	walk = func(id int64, cond aig.Lit) error {
		if id == stateID {
			return nil // unchanged under this condition
		}
		n, ok := p.nodes[id]
		if !ok {
			return fmt.Errorf("btor2: array next references unknown node %d", id)
		}
		switch n.kind {
		case "write":
			// write <sort> <array> <addr> <val>
			if len(n.args) < 3 {
				return fmt.Errorf("btor2 line %d: short write", n.line)
			}
			addr, err := p.value(n.args[1])
			if err != nil {
				return err
			}
			val, err := p.value(n.args[2])
			if err != nil {
				return err
			}
			writes = append(writes, pendingWrite{cond: cond, addr: addr, data: val})
			return walk(n.args[0], cond)
		case "ite":
			// ite <sort> <cond> <then> <else>
			if len(n.args) < 3 {
				return fmt.Errorf("btor2 line %d: short ite", n.line)
			}
			c, err := p.value(n.args[0])
			if err != nil {
				return err
			}
			cb := p.m.NonZero(c)
			if err := walk(n.args[1], p.m.N.And(cond, cb)); err != nil {
				return err
			}
			return walk(n.args[2], p.m.N.And(cond, cb.Not()))
		}
		return fmt.Errorf("btor2 line %d: unsupported array next shape (%s)", n.line, n.kind)
	}
	if err := walk(as.nextID, aig.True); err != nil {
		return err
	}
	for i := len(writes) - 1; i >= 0; i-- {
		w := writes[i]
		as.mem.Write(p.adapt(w.addr, as.aw), p.adapt(w.data, as.dw), w.cond)
	}
	return nil
}

// value evaluates a (possibly negated) bitvec node reference.
func (p *parser) value(ref int64) (rtl.Vec, error) {
	neg := ref < 0
	if neg {
		ref = -ref
	}
	v, err := p.nodeValue(ref)
	if err != nil {
		return nil, err
	}
	if neg {
		v = p.m.NotV(v)
	}
	return v, nil
}

func (p *parser) nodeValue(id int64) (rtl.Vec, error) {
	if v, ok := p.vals[id]; ok {
		return v, nil
	}
	n, ok := p.nodes[id]
	if !ok {
		return nil, fmt.Errorf("btor2: reference to unknown node %d", id)
	}
	v, err := p.eval(n)
	if err != nil {
		return nil, err
	}
	p.vals[id] = v
	return v, nil
}

func (p *parser) constValueOf(ref int64) (uint64, bool) {
	n, ok := p.nodes[ref]
	if !ok {
		return 0, false
	}
	switch n.kind {
	case "zero":
		return 0, true
	case "one":
		return 1, true
	case "ones":
		s := p.sorts[n.sort]
		if s.width == 64 {
			return ^uint64(0), true
		}
		return 1<<uint(s.width) - 1, true
	case "const":
		v, err := strconv.ParseUint(n.str, 2, 64)
		return v, err == nil
	case "constd":
		v, err := strconv.ParseUint(n.str, 10, 64)
		return v, err == nil
	case "consth":
		v, err := strconv.ParseUint(n.str, 16, 64)
		return v, err == nil
	}
	return 0, false
}

func (p *parser) adapt(v rtl.Vec, w int) rtl.Vec {
	if len(v) == w {
		return v
	}
	if len(v) > w {
		return p.m.Truncate(v, w)
	}
	return p.m.ZeroExtend(v, w)
}

func (p *parser) eval(n *node) (rtl.Vec, error) {
	m := p.m
	s, serr := p.bvSort(n)
	w := s.width
	bin := func() (rtl.Vec, rtl.Vec, error) {
		if len(n.args) < 2 {
			return nil, nil, fmt.Errorf("btor2 line %d: short %s", n.line, n.kind)
		}
		a, err := p.value(n.args[0])
		if err != nil {
			return nil, nil, err
		}
		b, err := p.value(n.args[1])
		if err != nil {
			return nil, nil, err
		}
		ww := len(a)
		if len(b) > ww {
			ww = len(b)
		}
		return p.adapt(a, ww), p.adapt(b, ww), nil
	}
	un := func() (rtl.Vec, error) {
		if len(n.args) < 1 {
			return nil, fmt.Errorf("btor2 line %d: short %s", n.line, n.kind)
		}
		return p.value(n.args[0])
	}
	bit := func(l aig.Lit) rtl.Vec { return rtl.Vec{l} }

	switch n.kind {
	case "const":
		if serr != nil {
			return nil, serr
		}
		v, err := strconv.ParseUint(n.str, 2, 64)
		if err != nil {
			return nil, fmt.Errorf("btor2 line %d: bad binary constant", n.line)
		}
		return m.Const(w, v), nil
	case "constd":
		if serr != nil {
			return nil, serr
		}
		v, err := strconv.ParseUint(n.str, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("btor2 line %d: bad decimal constant", n.line)
		}
		return m.Const(w, v), nil
	case "consth":
		if serr != nil {
			return nil, serr
		}
		v, err := strconv.ParseUint(n.str, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("btor2 line %d: bad hex constant", n.line)
		}
		return m.Const(w, v), nil
	case "zero":
		return m.Const(w, 0), nil
	case "one":
		return m.Const(w, 1), nil
	case "ones":
		if w == 64 {
			return m.NotV(m.Const(w, 0)), nil
		}
		return m.Const(w, 1<<uint(w)-1), nil
	case "not":
		a, err := un()
		if err != nil {
			return nil, err
		}
		return m.NotV(a), nil
	case "neg":
		a, err := un()
		if err != nil {
			return nil, err
		}
		return m.Sub(m.Const(len(a), 0), a), nil
	case "redand":
		a, err := un()
		if err != nil {
			return nil, err
		}
		out := aig.True
		for _, b := range a {
			out = m.N.And(out, b)
		}
		return bit(out), nil
	case "redor":
		a, err := un()
		if err != nil {
			return nil, err
		}
		return bit(m.NonZero(a)), nil
	case "redxor":
		a, err := un()
		if err != nil {
			return nil, err
		}
		out := aig.False
		for _, b := range a {
			out = m.N.Xor(out, b)
		}
		return bit(out), nil
	case "and", "or", "xor", "nand", "nor", "xnor":
		a, b, err := bin()
		if err != nil {
			return nil, err
		}
		var out rtl.Vec
		switch n.kind {
		case "and":
			out = m.AndV(a, b)
		case "or":
			out = m.OrV(a, b)
		case "xor":
			out = m.XorV(a, b)
		case "nand":
			out = m.NotV(m.AndV(a, b))
		case "nor":
			out = m.NotV(m.OrV(a, b))
		default:
			out = m.NotV(m.XorV(a, b))
		}
		return out, nil
	case "implies":
		a, b, err := bin()
		if err != nil {
			return nil, err
		}
		return bit(m.N.Implies(m.NonZero(a), m.NonZero(b))), nil
	case "iff":
		a, b, err := bin()
		if err != nil {
			return nil, err
		}
		return bit(m.N.Xnor(m.NonZero(a), m.NonZero(b))), nil
	case "add", "sub", "mul":
		a, b, err := bin()
		if err != nil {
			return nil, err
		}
		switch n.kind {
		case "add":
			return m.Add(a, b), nil
		case "sub":
			return m.Sub(a, b), nil
		default:
			return m.Mul(a, b), nil
		}
	case "eq", "neq", "ult", "ulte", "ugt", "ugte":
		a, b, err := bin()
		if err != nil {
			return nil, err
		}
		switch n.kind {
		case "eq":
			return bit(m.Eq(a, b)), nil
		case "neq":
			return bit(m.Ne(a, b)), nil
		case "ult":
			return bit(m.Ult(a, b)), nil
		case "ulte":
			return bit(m.Ule(a, b)), nil
		case "ugt":
			return bit(m.Ugt(a, b)), nil
		default:
			return bit(m.Uge(a, b)), nil
		}
	case "sll", "srl":
		a, b, err := bin()
		if err != nil {
			return nil, err
		}
		if n.kind == "sll" {
			return m.ShlV(a, b), nil
		}
		return m.ShrV(a, b), nil
	case "ite":
		if len(n.args) < 3 {
			return nil, fmt.Errorf("btor2 line %d: short ite", n.line)
		}
		c, err := p.value(n.args[0])
		if err != nil {
			return nil, err
		}
		a, err := p.value(n.args[1])
		if err != nil {
			return nil, err
		}
		b, err := p.value(n.args[2])
		if err != nil {
			return nil, err
		}
		ww := len(a)
		if len(b) > ww {
			ww = len(b)
		}
		return m.MuxV(m.NonZero(c), p.adapt(a, ww), p.adapt(b, ww)), nil
	case "slice":
		// slice <sort> <x> <upper> <lower>
		if len(n.args) < 3 {
			return nil, fmt.Errorf("btor2 line %d: short slice", n.line)
		}
		a, err := p.value(n.args[0])
		if err != nil {
			return nil, err
		}
		hi, lo := int(n.args[1]), int(n.args[2])
		if lo < 0 || hi >= len(a) || lo > hi {
			return nil, fmt.Errorf("btor2 line %d: slice [%d:%d] out of range", n.line, hi, lo)
		}
		return m.Slice(a, lo, hi+1), nil
	case "concat":
		// concat <sort> <hi-part> <lo-part>
		a, b, err := bin2(p, n)
		if err != nil {
			return nil, err
		}
		return m.Concat(b, a), nil
	case "uext":
		if len(n.args) < 2 {
			return nil, fmt.Errorf("btor2 line %d: short uext", n.line)
		}
		a, err := p.value(n.args[0])
		if err != nil {
			return nil, err
		}
		return m.ZeroExtend(a, len(a)+int(n.args[1])), nil
	case "read":
		// read <sort> <array> <addr>
		if len(n.args) < 2 {
			return nil, fmt.Errorf("btor2 line %d: short read", n.line)
		}
		as, ok := p.arrays[n.args[0]]
		if !ok {
			return nil, fmt.Errorf("btor2 line %d: read of non-array node %d", n.line, n.args[0])
		}
		addr, err := p.value(n.args[1])
		if err != nil {
			return nil, err
		}
		return as.mem.Read(p.adapt(addr, as.aw), aig.True), nil
	case "write":
		return nil, fmt.Errorf("btor2 line %d: write is only supported as an array next function", n.line)
	}
	return nil, fmt.Errorf("btor2 line %d: unsupported operation %q", n.line, n.kind)
}

// bin2 evaluates two operands without width harmonization (for concat).
func bin2(p *parser, n *node) (rtl.Vec, rtl.Vec, error) {
	if len(n.args) < 2 {
		return nil, nil, fmt.Errorf("btor2 line %d: short %s", n.line, n.kind)
	}
	a, err := p.value(n.args[0])
	if err != nil {
		return nil, nil, err
	}
	b, err := p.value(n.args[1])
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}
