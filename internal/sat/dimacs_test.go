package sat

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestReadDIMACSBasic(t *testing.T) {
	src := `c a comment
p cnf 3 3
1 -2 0
2 3 0
-1 0
`
	s := New()
	n, err := s.ReadDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || s.NumVars() != 3 {
		t.Fatalf("counts wrong: %d clauses %d vars", n, s.NumVars())
	}
	if s.Solve() != Sat {
		t.Fatalf("expected SAT")
	}
	if s.Value(0) != False {
		t.Fatalf("x1 forced false")
	}
}

func TestReadDIMACSMultilineClause(t *testing.T) {
	src := "p cnf 2 1\n1\n2\n0\n"
	s := New()
	n, err := s.ReadDIMACS(strings.NewReader(src))
	if err != nil || n != 1 {
		t.Fatalf("multi-line clause mishandled: %d %v", n, err)
	}
}

// A comment line longer than 1 MiB still parses: the scanner grows its
// buffer past the default for it.
func TestReadDIMACSLongLine(t *testing.T) {
	src := "c " + strings.Repeat("x", 1<<20+512) + "\np cnf 2 2\n1 2 0\n-1 0\n"
	s := New()
	if n, err := s.ReadDIMACS(strings.NewReader(src)); err != nil || n != 2 {
		t.Fatalf("read %d clauses, err %v", n, err)
	}
	if s.Solve() != Sat || s.Value(1) != True {
		t.Fatalf("expected SAT with x2 true")
	}
}

// A clause line of 262,144 literals ("1 2" repeated) reads as the clause
// (x1 ∨ x2): normalizing it sorts the literals, which must not take time
// quadratic in the clause's length.
func TestReadDIMACSLongClause(t *testing.T) {
	src := "p cnf 2 2\n" + strings.Repeat("1 2 ", 1<<17) + "0\n-1 0\n"
	s := New()
	if n, err := s.ReadDIMACS(strings.NewReader(src)); err != nil || n != 2 {
		t.Fatalf("read %d clauses, err %v", n, err)
	}
	if s.Solve() != Sat || s.Value(0) != False || s.Value(1) != True {
		t.Fatalf("expected SAT with x1 false, x2 true")
	}
}

func TestReadDIMACSErrors(t *testing.T) {
	for _, bad := range []string{
		"p cnf x 1\n",
		"p dnf 1 1\n",
		"1 a 0\n",
		"1 2\n", // unterminated
	} {
		s := New()
		if _, err := s.ReadDIMACS(strings.NewReader(bad)); err == nil {
			t.Fatalf("input %q must fail", bad)
		}
	}
}

func TestDIMACSRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 60; iter++ {
		nVars := 3 + rng.Intn(6)
		cnf := randomCNF(rng, nVars, 5+rng.Intn(25), 3)
		s1 := New()
		addVars(s1, nVars)
		ok := true
		for _, cl := range cnf {
			if !s1.AddClause(cl...) {
				ok = false
				break
			}
		}
		if !ok {
			continue // trivially UNSAT at load; roundtrip of partial DB unhelpful
		}
		var buf bytes.Buffer
		if err := s1.WriteDIMACS(&buf); err != nil {
			t.Fatal(err)
		}
		s2 := New()
		if _, err := s2.ReadDIMACS(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		r1, r2 := s1.Solve(), s2.Solve()
		if r1 != r2 {
			t.Fatalf("iter %d: verdicts differ %v vs %v\n%s", iter, r1, r2, buf.String())
		}
	}
}

func TestWriteModelDIMACS(t *testing.T) {
	s := New()
	addVars(s, 2)
	s.AddClause(lits(1)...)
	s.AddClause(lits(-2)...)
	if s.Solve() != Sat {
		t.Fatalf("expected SAT")
	}
	var buf bytes.Buffer
	if err := s.WriteModelDIMACS(&buf); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(buf.String())
	if got != "v 1 -2 0" {
		t.Fatalf("model line %q", got)
	}
}
