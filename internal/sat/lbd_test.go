package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// pigeonholeSolver builds the (pigeons into holes) instance on s.
func pigeonholeSolver(s *Solver, pigeons, holes int) {
	p := make([][]int, pigeons)
	for i := range p {
		p[i] = make([]int, holes)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i < pigeons; i++ {
		lits := make([]Lit, holes)
		for j := 0; j < holes; j++ {
			lits[j] = MkLit(p[i][j], false)
		}
		s.AddClause(lits...)
	}
	for j := 0; j < holes; j++ {
		for i := 0; i < pigeons; i++ {
			for k := i + 1; k < pigeons; k++ {
				s.AddClause(MkLit(p[i][j], true), MkLit(p[k][j], true))
			}
		}
	}
}

// TestLBDPigeonholeUnsat: a conflict-heavy instance with an aggressive
// reduction schedule must still be proved Unsat, and the reductions must
// actually fire and delete clauses — soundness under clause deletion.
func TestLBDPigeonholeUnsat(t *testing.T) {
	s := New()
	s.ReduceInterval = 50
	pigeonholeSolver(s, 8, 7)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve() = %v, want Unsat", got)
	}
	if s.Reduces == 0 {
		t.Fatalf("no LBD reductions fired (conflicts=%d)", s.Conflicts)
	}
	if s.Removed == 0 {
		t.Fatalf("reductions fired but removed nothing")
	}
	t.Logf("conflicts=%d reduces=%d removed=%d", s.Conflicts, s.Reduces, s.Removed)
}

// TestLBDSatInstanceFindsModel: clause deletion must not lose solutions.
// A satisfiable instance (pigeons == holes) under an aggressive schedule
// still yields a valid assignment.
func TestLBDSatInstanceFindsModel(t *testing.T) {
	s := New()
	s.ReduceInterval = 50
	const n = 8
	pigeonholeSolver(s, n, n)
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve() = %v, want Sat", got)
	}
	// Each pigeon in some hole; no hole double-booked. Vars were created
	// row-major: pigeon i, hole j -> var i*n+j.
	for i := 0; i < n; i++ {
		placed := false
		for j := 0; j < n; j++ {
			if s.Value(i*n + j) {
				placed = true
			}
		}
		if !placed {
			t.Fatalf("pigeon %d unplaced in model", i)
		}
	}
	for j := 0; j < n; j++ {
		count := 0
		for i := 0; i < n; i++ {
			if s.Value(i*n + j) {
				count++
			}
		}
		if count > 1 {
			t.Fatalf("hole %d holds %d pigeons", j, count)
		}
	}
}

// TestLBDRandomCNFAgainstBruteForce: with LBD reduction on and an
// aggressive interval, verdicts on random small CNFs must still agree
// with exhaustive enumeration.
func TestLBDRandomCNFAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 3 + rng.Intn(8)
		nClauses := rng.Intn(40)
		cnf := make([][]Lit, 0, nClauses)
		for i := 0; i < nClauses; i++ {
			width := 1 + rng.Intn(3)
			cl := make([]Lit, width)
			for j := range cl {
				cl[j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
			}
			cnf = append(cnf, cl)
		}
		s := New()
		s.ReduceInterval = 5 // fire constantly on these tiny instances
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		got := s.Solve()
		want := bruteForce(nVars, cnf)
		if (got == Sat) != want {
			t.Logf("seed %d: got %v want sat=%v", seed, got, want)
			return false
		}
		if got == Sat {
			for _, cl := range cnf {
				ok := false
				for _, l := range cl {
					v := s.Value(l.Var())
					if l.Neg() {
						v = !v
					}
					if v {
						ok = true
						break
					}
				}
				if !ok {
					t.Logf("seed %d: model does not satisfy %v", seed, cl)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLBDIncrementalAssumptions: reduction across repeated assumption-based
// Solve calls (the incremental SMT usage pattern) must preserve verdicts.
func TestLBDIncrementalAssumptions(t *testing.T) {
	s := New()
	s.ReduceInterval = 20

	// XOR chain x0 ^ x1 ^ ... ^ x7 = parity; selector a activates a unit
	// forcing parity true, selector b forcing parity false.
	n := 8
	xs := make([]int, n)
	for i := range xs {
		xs[i] = s.NewVar()
	}
	acc := xs[0]
	for i := 1; i < n; i++ {
		out := s.NewVar()
		addXor(s, acc, xs[i], out)
		acc = out
	}
	selTrue := s.NewVar()
	selFalse := s.NewVar()
	s.AddClause(MkLit(selTrue, true), MkLit(acc, false))
	s.AddClause(MkLit(selFalse, true), MkLit(acc, true))

	for round := 0; round < 20; round++ {
		if got := s.Solve(MkLit(selTrue, false)); got != Sat {
			t.Fatalf("round %d: parity=true got %v, want Sat", round, got)
		}
		if got := s.Solve(MkLit(selFalse, false)); got != Sat {
			t.Fatalf("round %d: parity=false got %v, want Sat", round, got)
		}
		if got := s.Solve(MkLit(selTrue, false), MkLit(selFalse, false)); got != Unsat {
			t.Fatalf("round %d: both selectors got %v, want Unsat", round, got)
		}
	}
}
