package smt

import (
	"math/rand"
	"testing"
)

// BenchmarkCheckSatIncremental drives the incremental path the Figure 6
// run spends its time in: one Solver with a persistent SAT instance
// answers a seeded sequence of bit-vector equivalence queries built by
// the canonical-hash test generator over shared variables. Each
// iteration rebuilds the terms in a fresh Context from the same seed, so
// every iteration does identical work.
func BenchmarkCheckSatIncremental(b *testing.B) {
	const queries = 60
	names := []string{"a", "b", "c", "d"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(2021))
		ctx := NewContext()
		s := NewSolver(ctx)
		s.Incremental = true
		var sat, unsat int
		for q := 0; q < queries; q++ {
			x := namedRandomTerm(ctx, rng, 8, 4, names)
			y := namedRandomTerm(ctx, rng, 8, 4, names)
			f := ctx.Eq(x, y)
			if q%2 == 1 {
				f = ctx.Not(f)
			}
			res, _, err := s.CheckSat(f)
			if err != nil {
				b.Fatal(err)
			}
			switch res {
			case ResultSat:
				sat++
			case ResultUnsat:
				unsat++
			}
		}
		if sat == 0 || unsat == 0 {
			b.Fatalf("one-sided query mix: %d sat, %d unsat", sat, unsat)
		}
		b.ReportMetric(float64(s.Stats.SATConflicts), "conflicts/op")
	}
}

// BenchmarkCheckSatPathChain drives Sat-model reuse on the fixture of
// TestModelReuseMatchesFresh: one incremental solver answers a seeded
// path chain (growing conjunctions over variables and memory reads),
// where most Sat queries are satisfied by a recent model. The chain is
// built once; each iteration is a fresh solver over the same terms.
func BenchmarkCheckSatPathChain(b *testing.B) {
	ctx := NewContext()
	chain := pathChain(ctx, rand.New(rand.NewSource(2021)), 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSolver(ctx)
		s.Incremental = true
		for _, f := range chain {
			if _, _, err := s.CheckSat(f); err != nil {
				b.Fatal(err)
			}
		}
		if s.Stats.ModelHits == 0 {
			b.Fatal("no query was answered by a reused model")
		}
		b.ReportMetric(float64(s.Stats.ModelHits), "model_hits/op")
		b.ReportMetric(float64(s.Stats.SATConflicts), "conflicts/op")
	}
}
