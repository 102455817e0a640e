package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadDIMACS parses a CNF in DIMACS format into the solver, allocating
// variables as needed. It returns the number of clauses read. Comment
// lines ('c ...') and the problem line ('p cnf V C') are accepted; the
// declared counts are advisory.
func (s *Solver) ReadDIMACS(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 16<<20) // the default buffer, grown for lines up to 16 MiB
	clauses := 0
	var cur []Lit
	ensure := func(v int) error {
		if v <= 0 {
			return fmt.Errorf("dimacs: bad variable %d", v)
		}
		for s.NumVars() < v {
			s.NewVar()
		}
		return nil
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == 'c' || line[0] == '%' {
			continue
		}
		if line[0] == 'p' {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return clauses, fmt.Errorf("dimacs: bad problem line %q", line)
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil || v < 0 {
				return clauses, fmt.Errorf("dimacs: bad variable count %q", fields[2])
			}
			for s.NumVars() < v {
				s.NewVar()
			}
			continue
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return clauses, fmt.Errorf("dimacs: bad literal %q", tok)
			}
			if n == 0 {
				s.AddClause(cur...)
				cur = cur[:0]
				clauses++
				continue
			}
			v := n
			if v < 0 {
				v = -v
			}
			if err := ensure(v); err != nil {
				return clauses, err
			}
			cur = append(cur, MkLit(Var(v-1), n < 0))
		}
	}
	if err := sc.Err(); err != nil {
		return clauses, err
	}
	if len(cur) > 0 {
		return clauses, fmt.Errorf("dimacs: clause not terminated by 0")
	}
	return clauses, nil
}

// WriteDIMACS emits the solver's original clauses as DIMACS CNF.
func (s *Solver) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p cnf %d %d\n", s.NumVars(), len(s.clauses))
	for _, c := range s.clauses {
		for _, l := range s.db.lits(c) {
			n := int(l.Var()) + 1
			if l.Sign() {
				n = -n
			}
			fmt.Fprintf(bw, "%d ", n)
		}
		fmt.Fprintln(bw, 0)
	}
	return bw.Flush()
}

// WriteModelDIMACS emits the current model as a DIMACS "v" line.
func (s *Solver) WriteModelDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "v")
	for v := 0; v < len(s.model); v++ {
		n := v + 1
		if s.model[v] != True {
			n = -n
		}
		fmt.Fprintf(bw, " %d", n)
	}
	fmt.Fprintln(bw, " 0")
	return bw.Flush()
}
