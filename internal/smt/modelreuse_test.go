package smt

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/proof"
)

// pathChain returns a seeded sequence of feasibility queries shaped like
// the checker's: a symbolic executor follows one path, and at each
// branch asks whether the path condition so far can take either side.
// The path condition is a growing conjunction over 8-bit variables and
// bytes read from a memory that the path has stored into at symbolic
// addresses, so the array reducer keeps Ackermann entries across
// queries. The path follows whichever side is feasible (the taken one
// when both are), and every query of the chain is returned in order.
func pathChain(ctx *Context, rng *rand.Rand, branches int) []*Term {
	names := []string{"a", "b", "c", "d"}
	p := ctx.VarBV("p", 64)
	q := ctx.VarBV("q", 64)
	mem := ctx.VarMem("mem")
	at := func(base *Term, off int) *Term { return ctx.Add(base, ctx.BV(uint64(off), 64)) }
	pc := ctx.True()
	var queries []*Term
	for i := 0; i < branches; i++ {
		if rng.Intn(3) == 0 {
			mem = ctx.Store(mem, at(p, rng.Intn(4)), namedRandomTerm(ctx, rng, 8, 2, names))
		}
		lhs := ctx.Add(namedRandomTerm(ctx, rng, 8, 2, names), ctx.Select(mem, at(q, rng.Intn(4))))
		rhs := namedRandomTerm(ctx, rng, 8, 1, names)
		var cond *Term
		switch rng.Intn(3) {
		case 0:
			cond = ctx.Ult(lhs, rhs)
		case 1:
			cond = ctx.Eq(lhs, rhs)
		default:
			cond = ctx.Not(ctx.Eq(lhs, rhs))
		}
		taken, other := ctx.AndB(pc, cond), ctx.AndB(pc, ctx.Not(cond))
		queries = append(queries, taken, other)
		if rng.Intn(4) == 0 {
			taken, other = other, taken
		}
		// The next path condition extends a feasible side; the fresh
		// solver's verdict decides which, so the chain does not depend on
		// the solver under test.
		if res, _, err := NewSolver(ctx).CheckSat(taken); err == nil && res == ResultSat {
			pc = taken
		} else {
			pc = other
		}
	}
	return queries
}

// TestModelReuseMatchesFresh is the differential test of Sat-model
// reuse: an incremental solver with a recorder answers seeded path
// chains, and every verdict must equal a fresh solver's on the same
// formula, every Sat model it returns must satisfy the formula, and the
// certificates — reused models included — must verify. The chains must
// exercise both reuse and real Sat solves.
func TestModelReuseMatchesFresh(t *testing.T) {
	var hits, solvedSat, unsat int64
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ctx := NewContext()
			rec, finish := newTestRecorder(t, fmt.Sprintf("reuse-%d", seed))
			s := NewSolver(ctx)
			s.Incremental = true
			s.Inprocess = true
			s.Recorder = rec
			for i, f := range pathChain(ctx, rand.New(rand.NewSource(seed)), 16) {
				before := s.Stats
				res, m, err := s.CheckSat(f)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				want, _, err := NewSolver(ctx).CheckSat(f)
				if err != nil {
					t.Fatalf("query %d (fresh): %v", i, err)
				}
				if res != want {
					t.Fatalf("query %d: incremental %v, fresh %v", i, res, want)
				}
				switch res {
				case ResultSat:
					if ok, err := m.EvalBool(f); err != nil || !ok {
						t.Fatalf("query %d: returned model does not satisfy the formula (%v, %v)", i, ok, err)
					}
					if s.Stats.ModelHits == before.ModelHits && s.Stats.FastQueries == before.FastQueries {
						solvedSat++
					}
				case ResultUnsat:
					unsat++
				}
			}
			hits += s.Stats.ModelHits
			report, err := proof.CheckDir(finish())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range report.Rejections {
				t.Errorf("rejection: %s", r)
			}
		})
	}
	t.Logf("model hits %d, solved Sat %d, Unsat %d", hits, solvedSat, unsat)
	if hits == 0 || solvedSat == 0 || unsat == 0 {
		t.Fatalf("chains did not exercise every path: %d model hits, %d solved Sat, %d Unsat", hits, solvedSat, unsat)
	}
}
