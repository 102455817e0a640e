// Package sat implements a CDCL (conflict-driven clause learning) SAT solver
// with watched-literal propagation, VSIDS decision heuristics, phase saving,
// glue-EMA restarts, LBD-tiered learnt clauses, incremental solving under
// assumptions, and resolution proof tracing for UNSAT-core extraction.
//
// The proof-tracing facility is what makes this solver suitable as the back
// end of proof-based abstraction (PBA): every original clause carries a
// caller-supplied provenance tag, and after an UNSAT answer Core reports the
// tags of a subset of original clauses sufficient for unsatisfiability.
package sat

import "fmt"

// Var is a propositional variable. Variables are allocated densely starting
// at 0 via Solver.NewVar.
type Var int32

// Lit is a literal: a variable together with a sign. The encoding is
// lit = 2*var + sign, with sign 1 meaning negated. This matches the
// MiniSat convention and makes Lit usable directly as a slice index.
type Lit int32

// LitUndef is the sentinel "no literal" value.
const LitUndef Lit = -1

// VarUndef is the sentinel "no variable" value.
const VarUndef Var = -1

// MkLit builds a literal from a variable and a sign (neg=true for ¬v).
func MkLit(v Var, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v) << 1 }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v)<<1 | 1 }

// Var returns the variable underlying l.
func (l Lit) Var() Var { return Var(l >> 1) }

// Sign reports whether l is negated.
func (l Lit) Sign() bool { return l&1 != 0 }

// Not returns the complement of l.
func (l Lit) Not() Lit { return l ^ 1 }

// XorSign flips the sign of l when neg is true.
func (l Lit) XorSign(neg bool) Lit {
	if neg {
		return l ^ 1
	}
	return l
}

// String renders the literal in DIMACS-like form ("3", "-3").
func (l Lit) String() string {
	if l == LitUndef {
		return "undef"
	}
	if l.Sign() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// LBool is a lifted boolean: True, False or Undef.
type LBool int8

// Lifted boolean constants.
const (
	Undef LBool = iota
	True
	False
)

// Not negates a lifted boolean (Undef stays Undef).
func (b LBool) Not() LBool {
	switch b {
	case True:
		return False
	case False:
		return True
	}
	return Undef
}

// XorSign flips b when neg is true.
func (b LBool) XorSign(neg bool) LBool {
	if neg {
		return b.Not()
	}
	return b
}

// String renders the lifted boolean.
func (b LBool) String() string {
	switch b {
	case True:
		return "true"
	case False:
		return "false"
	}
	return "undef"
}

// Status is the result of a Solve call.
type Status int

// Solve outcomes.
const (
	// Unknown means the solver was interrupted (budget or cancellation).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula (under the given assumptions) is unsatisfiable.
	Unsat
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}
