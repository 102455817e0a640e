package verilog

import (
	"fmt"
	"slices"

	"emmver/internal/aig"
	"emmver/internal/rtl"
)

// evalFF elaborates a clocked process: non-blocking assignments become
// per-bit next-state muxes (later statements override earlier ones, as the
// scheduling semantics demand), and assignments to memory words become
// write ports in statement order (so the eq. 4 chain's higher-port-wins
// tie-break coincides with "last non-blocking assignment wins").
func (e *elaborator) evalFF(sc *scope, blk *AlwaysFF) error {
	next := make(map[string]rtl.Vec)
	if err := e.walkFF(sc, blk.Body, aig.True, next); err != nil {
		return err
	}
	for name, v := range next {
		nn := sc.nets[name]
		if nn.ffDriven {
			return fmt.Errorf("verilog: %q assigned from multiple clocked processes", name)
		}
		nn.ffDriven = true
		nn.reg.SetNext(v)
	}
	return nil
}

func (e *elaborator) walkFF(sc *scope, s Stmt, cond aig.Lit, next map[string]rtl.Vec) error {
	m := e.m
	switch st := s.(type) {
	case *Block:
		for _, sub := range st.Stmts {
			if err := e.walkFF(sc, sub, cond, next); err != nil {
				return err
			}
		}
		return nil
	case *NullStmt:
		return nil
	case *BAssign:
		return fmt.Errorf("line %d: blocking assignment in a clocked process (use <=)", st.Line)
	case *NBAssign:
		return e.ffAssign(sc, st, cond, next)
	case *If:
		c, err := e.eval(sc, st.Cond)
		if err != nil {
			return err
		}
		cb := m.NonZero(c)
		if err := e.walkFF(sc, st.Then, m.N.And(cond, cb), next); err != nil {
			return err
		}
		if st.Else != nil {
			return e.walkFF(sc, st.Else, m.N.And(cond, cb.Not()), next)
		}
		return nil
	case *Case:
		subj, err := e.eval(sc, st.Subject)
		if err != nil {
			return err
		}
		prevMatch := aig.False
		for _, arm := range st.Arms {
			armHit := aig.False
			for _, lab := range arm.Labels {
				lv, err := e.eval(sc, lab)
				if err != nil {
					return err
				}
				w := maxInt(len(subj), len(lv))
				armHit = m.N.Or(armHit, m.Eq(adaptWidth(m, subj, w), adaptWidth(m, lv, w)))
			}
			take := m.N.Ands(cond, armHit, prevMatch.Not())
			if err := e.walkFF(sc, arm.Body, take, next); err != nil {
				return err
			}
			prevMatch = m.N.Or(prevMatch, armHit)
		}
		if st.Default != nil {
			return e.walkFF(sc, st.Default, m.N.And(cond, prevMatch.Not()), next)
		}
		return nil
	}
	return fmt.Errorf("verilog: unsupported statement in clocked process")
}

// ffAssign applies one non-blocking assignment under a path condition.
func (e *elaborator) ffAssign(sc *scope, st *NBAssign, cond aig.Lit, next map[string]rtl.Vec) error {
	m := e.m
	// Memory word write.
	if mem := sc.mems[st.LHS.Name]; mem != nil {
		if st.LHS.Index == nil {
			return fmt.Errorf("line %d: memory %q assigned without an index", st.Line, st.LHS.Name)
		}
		addr, err := e.eval(sc, st.LHS.Index)
		if err != nil {
			return err
		}
		data, err := e.eval(sc, st.RHS)
		if err != nil {
			return err
		}
		mem.mem.Write(adaptWidth(m, addr, mem.aw),
			adaptWidth(m, data, mem.decl.width(e, sc)), cond)
		return nil
	}
	nn := sc.nets[st.LHS.Name]
	if nn == nil {
		return fmt.Errorf("line %d: assignment to undeclared %q", st.Line, st.LHS.Name)
	}
	if nn.reg == nil {
		return fmt.Errorf("line %d: %q is not a clocked reg", st.Line, st.LHS.Name)
	}
	cur, ok := next[st.LHS.Name]
	if !ok {
		cur = append(rtl.Vec(nil), nn.reg.Q...)
	}
	rhs, err := e.eval(sc, st.RHS)
	if err != nil {
		return err
	}
	switch {
	case st.LHS.MSB != nil:
		msb, err := e.constEval(sc, st.LHS.MSB)
		if err != nil {
			return err
		}
		lsb, err := e.constEval(sc, st.LHS.LSB)
		if err != nil {
			return err
		}
		lo, hi := int(lsb)-nn.lsb, int(msb)-nn.lsb
		if lo < 0 || hi >= len(cur) || lo > hi {
			return fmt.Errorf("line %d: part select [%d:%d] out of range", st.Line, msb, lsb)
		}
		rhs = adaptWidth(m, rhs, hi-lo+1)
		for i := lo; i <= hi; i++ {
			cur[i] = m.N.Mux(cond, rhs[i-lo], cur[i])
		}
	case st.LHS.Index != nil:
		if ci, cerr := e.constEval(sc, st.LHS.Index); cerr == nil {
			bit := int(ci) - nn.lsb
			if bit < 0 || bit >= len(cur) {
				return fmt.Errorf("line %d: bit index %d out of range", st.Line, ci)
			}
			cur[bit] = m.N.Mux(cond, adaptWidth(m, rhs, 1)[0], cur[bit])
		} else {
			idx, err := e.eval(sc, st.LHS.Index)
			if err != nil {
				return err
			}
			if nn.lsb != 0 {
				idx = m.Sub(idx, m.Const(len(idx), uint64(nn.lsb)))
			}
			bitv := adaptWidth(m, rhs, 1)[0]
			for i := range cur {
				if len(idx) < 64 && uint64(i) >= 1<<uint(len(idx)) {
					break // unreachable by this index width
				}
				hit := m.N.And(cond, m.EqConst(idx, uint64(i)))
				cur[i] = m.N.Mux(hit, bitv, cur[i])
			}
		}
	default:
		rhs = adaptWidth(m, rhs, len(cur))
		for i := range cur {
			cur[i] = m.N.Mux(cond, rhs[i], cur[i])
		}
	}
	next[st.LHS.Name] = cur
	return nil
}

// width is a small helper on Decl reading the elaborated width.
func (d *Decl) width(e *elaborator, sc *scope) int {
	w, _, err := e.declWidth(sc, d)
	if err != nil {
		return 1
	}
	return w
}

// evalComb symbolically executes a combinational process with blocking
// assignments, returning the final value environment. Each driven target
// must be assigned on every control path (no latch inference).
func (e *elaborator) evalComb(sc *scope, blk *AlwaysComb) (map[string]rtl.Vec, error) {
	env := &evalEnv{
		vals:    make(map[string]rtl.Vec),
		targets: make(map[string]bool),
	}
	for _, t := range stmtTargets(blk.Body) {
		env.targets[t] = true
	}
	if err := e.walkComb(sc, blk.Body, env); err != nil {
		return nil, err
	}
	return env.vals, nil
}

func (e *elaborator) walkComb(sc *scope, s Stmt, env *evalEnv) error {
	m := e.m
	switch st := s.(type) {
	case *Block:
		for _, sub := range st.Stmts {
			if err := e.walkComb(sc, sub, env); err != nil {
				return err
			}
		}
		return nil
	case *NullStmt:
		return nil
	case *NBAssign:
		return fmt.Errorf("line %d: non-blocking assignment in always@(*) (use =)", st.Line)
	case *BAssign:
		nn := sc.nets[st.LHS.Name]
		if nn == nil {
			return fmt.Errorf("line %d: assignment to undeclared %q", st.Line, st.LHS.Name)
		}
		if st.LHS.Index != nil || st.LHS.MSB != nil {
			return fmt.Errorf("line %d: partial assignment in always@(*) is not supported", st.Line)
		}
		rhs, err := e.evalCtx(sc, st.RHS, env)
		if err != nil {
			return err
		}
		env.vals[st.LHS.Name] = adaptWidth(m, rhs, nn.width)
		return nil
	case *If:
		c, err := e.evalCtx(sc, st.Cond, env)
		if err != nil {
			return err
		}
		cb := m.NonZero(c)
		thenEnv := env.clone()
		if err := e.walkComb(sc, st.Then, thenEnv); err != nil {
			return err
		}
		elseEnv := env.clone()
		if st.Else != nil {
			if err := e.walkComb(sc, st.Else, elseEnv); err != nil {
				return err
			}
		}
		mergeEnv(m, env, cb, thenEnv, elseEnv)
		return nil
	case *Case:
		subj, err := e.evalCtx(sc, st.Subject, env)
		if err != nil {
			return err
		}
		// Lower the case to a chain of ifs over cloned environments.
		prevMatch := aig.False
		branchEnvs := make([]*evalEnv, 0, len(st.Arms)+1)
		branchConds := make([]aig.Lit, 0, len(st.Arms))
		for _, arm := range st.Arms {
			armHit := aig.False
			for _, lab := range arm.Labels {
				lv, err := e.evalCtx(sc, lab, env)
				if err != nil {
					return err
				}
				w := maxInt(len(subj), len(lv))
				armHit = m.N.Or(armHit, m.Eq(adaptWidth(m, subj, w), adaptWidth(m, lv, w)))
			}
			take := m.N.And(armHit, prevMatch.Not())
			prevMatch = m.N.Or(prevMatch, armHit)
			be := env.clone()
			if err := e.walkComb(sc, arm.Body, be); err != nil {
				return err
			}
			branchEnvs = append(branchEnvs, be)
			branchConds = append(branchConds, take)
		}
		defEnv := env.clone()
		if st.Default != nil {
			if err := e.walkComb(sc, st.Default, defEnv); err != nil {
				return err
			}
		}
		// Merge from the default upward so earlier arms take priority.
		acc := defEnv
		for i := len(branchEnvs) - 1; i >= 0; i-- {
			merged := env.clone()
			mergeEnv(m, merged, branchConds[i], branchEnvs[i], acc)
			acc = merged
		}
		env.vals = acc.vals
		return nil
	}
	return fmt.Errorf("verilog: unsupported statement in always@(*)")
}

func (env *evalEnv) clone() *evalEnv {
	out := &evalEnv{vals: make(map[string]rtl.Vec, len(env.vals)), targets: env.targets}
	for k, v := range env.vals {
		out.vals[k] = v
	}
	return out
}

// mergeEnv merges two branch environments under a condition into dst:
// values assigned in both (or backed by a pre-branch value) mux together;
// values assigned on only one path with no prior value are dropped, which
// later surfaces as an incomplete-assignment error if the target is read
// or drives a net. The names are joined in sorted order, so every
// elaboration of the same source builds its muxes in the same order and
// numbers their nodes alike.
func mergeEnv(m *rtl.Module, dst *evalEnv, cond aig.Lit, thenEnv, elseEnv *evalEnv) {
	names := make([]string, 0, len(thenEnv.vals)+len(elseEnv.vals))
	for k := range thenEnv.vals {
		names = append(names, k)
	}
	for k := range elseEnv.vals {
		if _, ok := thenEnv.vals[k]; !ok {
			names = append(names, k)
		}
	}
	slices.Sort(names)
	for _, k := range names {
		tv, tok := thenEnv.vals[k]
		ev, eok := elseEnv.vals[k]
		switch {
		case tok && eok:
			w := maxInt(len(tv), len(ev))
			dst.vals[k] = m.MuxV(cond, adaptWidth(m, tv, w), adaptWidth(m, ev, w))
		case tok:
			if prev, ok := dst.vals[k]; ok {
				dst.vals[k] = m.MuxV(cond, adaptWidth(m, tv, len(prev)), prev)
			} else {
				delete(dst.vals, k)
			}
		case eok:
			if prev, ok := dst.vals[k]; ok {
				dst.vals[k] = m.MuxV(cond, prev, adaptWidth(m, ev, len(prev)))
			} else {
				delete(dst.vals, k)
			}
		}
	}
}
