package sat

import (
	"math/rand"
	"testing"
)

// Microbenchmarks for the CDCL core over deterministic fixtures built at
// run time. Every benchmark reports allocations: steady-state search
// should allocate nothing per conflict.

// random3CNF adds m seeded random 3-clauses over variables [0, n) to s,
// each guarded by the literals in guard.
func random3CNF(s *Solver, rng *rand.Rand, n, m int, guard ...Lit) {
	cl := make([]Lit, 0, 3+len(guard))
	for i := 0; i < m; i++ {
		cl = append(cl[:0], guard...)
		for _, v := range rng.Perm(n)[:3] {
			cl = append(cl, MkLit(v, rng.Intn(2) == 1))
		}
		s.AddClause(cl...)
	}
}

// BenchmarkSolvePigeonhole: a conflict-bound Unsat instance (8 pigeons,
// 7 holes) under LBD reduction, so clause deletion and arena compaction
// are on the measured path.
func BenchmarkSolvePigeonhole(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		s.LBD = true
		pigeonholeSolver(s, 8, 7)
		if st := s.Solve(); st != Unsat {
			b.Fatalf("got %v, want Unsat", st)
		}
	}
}

// BenchmarkSolveRandom3CNF: four seeded uniform random 3-CNF instances at
// the satisfiability threshold (120 variables, 511 clauses), a mix of Sat
// and Unsat verdicts.
func BenchmarkSolveRandom3CNF(b *testing.B) {
	const n, m = 120, 511
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for seed := int64(1); seed <= 4; seed++ {
			s := New()
			s.LBD = true
			for v := 0; v < n; v++ {
				s.NewVar()
			}
			random3CNF(s, rand.New(rand.NewSource(seed)), n, m)
			if st := s.Solve(); st == Unknown {
				b.Fatal("unbudgeted solve returned Unknown")
			}
		}
	}
}

// BenchmarkSolveIncremental mirrors the incremental SMT pattern that
// dominates the Figure 6 run: one long-lived instance (LBD reduction and
// inprocessing on) answers many queries, each adding its own clauses
// under a fresh activation literal and solved under that assumption.
// Most answers are Sat, so each query assigns every variable.
func BenchmarkSolveIncremental(b *testing.B) {
	const n, base, queries, perQuery = 200, 500, 200, 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(42))
		s := New()
		s.LBD = true
		s.Inprocess = true
		for v := 0; v < n; v++ {
			s.NewVar()
		}
		random3CNF(s, rng, n, base)
		for q := 0; q < queries; q++ {
			act := MkLit(s.NewVar(), false)
			random3CNF(s, rng, n, perQuery, act.Not())
			if st := s.Solve(act); st == Unknown {
				b.Fatal("unbudgeted solve returned Unknown")
			}
		}
	}
}
