package smt

import (
	"testing"
)

// negTheorem is the negation of (x+1)*(x-1) == x*x - 1 over a variable
// named name: a theorem at any width, but not one the construction-time
// simplifier can see, so the query reaches the SAT solver and comes back
// Unsat.
func negTheorem(c *Context, name string, width uint8) *Term {
	x := c.VarBV(name, width)
	one := c.BV(1, width)
	lhs := c.Mul(c.Add(x, one), c.Sub(x, one))
	rhs := c.Sub(c.Mul(x, x), one)
	return c.Not(c.Eq(lhs, rhs))
}

// TestCachePutGetRoundtrip: a solver with its cache on stores the Sat and
// Unsat verdicts it decides and serves both when the queries repeat.
func TestCachePutGetRoundtrip(t *testing.T) {
	c := NewContext()
	unsatQ := negTheorem(c, "x", 8)
	satQ := c.Eq(c.Mul(c.VarBV("y", 8), c.BV(3, 8)), c.BV(9, 8))
	s := NewSolver(c)
	s.CacheResults = true
	for _, want := range []struct {
		f   *Term
		res Result
	}{{unsatQ, ResultUnsat}, {satQ, ResultSat}, {unsatQ, ResultUnsat}, {satQ, ResultSat}} {
		res, _, err := s.CheckSat(want.f)
		if err != nil || res != want.res {
			t.Fatalf("CheckSat = (%v, %v), want %v", res, err, want.res)
		}
	}
	if s.Stats.CacheHits != 2 || s.Stats.CacheMisses != 2 {
		t.Fatalf("hits=%d misses=%d, want 2 and 2", s.Stats.CacheHits, s.Stats.CacheMisses)
	}
	if len(s.cache) != 2 {
		t.Fatalf("cache holds %d entries, want 2", len(s.cache))
	}
}

// TestCacheRejectsUnknownOnPut: remember drops Unknown verdicts, and a
// solver with its cache off stores nothing at all.
func TestCacheRejectsUnknownOnPut(t *testing.T) {
	c := NewContext()
	k, _ := CanonicalHash(c.Eq(c.VarBV("x", 8), c.BV(1, 8)))
	s := NewSolver(c)
	s.CacheResults = true
	s.remember(k, ResultUnknown)
	if len(s.cache) != 0 {
		t.Fatalf("Unknown was stored; %d entries", len(s.cache))
	}
	off := NewSolver(c)
	off.remember(k, ResultUnsat)
	if len(off.cache) != 0 {
		t.Fatalf("solver with its cache off stored a verdict")
	}
}

// TestCachePoisonedSentinel plants an Unknown entry directly into the
// solver's cache and proves that the solver still solves the query
// itself and reaches the correct verdict. No verdict may ever come from
// an Unknown entry.
func TestCachePoisonedSentinel(t *testing.T) {
	c := NewContext()
	x := c.VarBV("x", 8)
	f := c.AndB(c.Eq(x, c.BV(1, 8)), c.Eq(x, c.BV(2, 8))) // unsat
	if f.IsFalse() {
		t.Skip("simplifier decided the formula; pick a harder sentinel")
	}
	k, _ := CanonicalHash(f)

	s := NewSolver(c)
	s.CacheResults = true
	s.cache = map[CanonKey]Result{k: ResultUnknown} // poison
	res, _, err := s.CheckSat(f)
	if err != nil {
		t.Fatal(err)
	}
	if res != ResultUnsat {
		t.Fatalf("CheckSat = %v, want Unsat", res)
	}
	if s.Stats.CacheHits != 0 {
		t.Fatalf("poisoned entry counted as a cache hit")
	}
	if s.Stats.CacheMisses != 1 {
		t.Fatalf("CacheMisses = %d, want 1", s.Stats.CacheMisses)
	}
	// The real verdict must have overwritten the poison.
	if r := s.cache[k]; r != ResultUnsat {
		t.Fatalf("solved verdict not stored over poison: %v", r)
	}
}

// TestCacheAlphaHitAcrossSyncPoints: the cache outlives ResetIncremental,
// so a query alpha-equivalent to one decided at an earlier sync point of
// the same function is answered without solving.
func TestCacheAlphaHitAcrossSyncPoints(t *testing.T) {
	c := NewContext()
	s := NewSolver(c)
	s.CacheResults = true
	s.Incremental = true
	res1, _, err := s.CheckSat(negTheorem(c, "x", 8))
	if err != nil || res1 != ResultUnsat {
		t.Fatalf("first solve = (%v, %v), want Unsat", res1, err)
	}
	if s.Stats.CacheMisses != 1 || s.Stats.CacheHits != 0 {
		t.Fatalf("first solve stats: hits=%d misses=%d", s.Stats.CacheHits, s.Stats.CacheMisses)
	}

	s.ResetIncremental() // the checker's move to the next sync point
	before := s.Stats
	res2, model, err := s.CheckSat(negTheorem(c, "vreg!0", 8))
	if err != nil || res2 != ResultUnsat {
		t.Fatalf("alpha-renamed solve = (%v, %v), want Unsat", res2, err)
	}
	if s.Stats.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", s.Stats.CacheHits)
	}
	if model != nil {
		t.Fatalf("Unsat hit returned a model")
	}
	if s.Stats.SATConflicts != before.SATConflicts || s.Stats.CNFClauses != before.CNFClauses {
		t.Fatalf("cache hit still ran the SAT solver")
	}
}

// TestCacheSatHitReturnsNilModel: a Sat verdict served from the cache
// carries no model — callers that need counterexamples must solve
// uncached, and the checker never reads models from cached paths.
func TestCacheSatHitReturnsNilModel(t *testing.T) {
	c := NewContext()
	s := NewSolver(c)
	s.CacheResults = true
	// Constants first: the simplifier orders commutative arguments by
	// term age, so both queries must see them older than their variable.
	three, nine := c.BV(3, 8), c.BV(9, 8)
	f1 := c.Eq(c.Mul(c.VarBV("x", 8), three), nine)
	res1, model1, err := s.CheckSat(f1)
	if err != nil {
		t.Fatal(err)
	}
	if res1 != ResultSat || model1 == nil {
		t.Fatalf("first solve = %v model=%v, want Sat with model", res1, model1)
	}

	f2 := c.Eq(c.Mul(c.VarBV("q", 8), three), nine)
	res2, model2, err := s.CheckSat(f2)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != ResultSat {
		t.Fatalf("cached solve = %v, want Sat", res2)
	}
	if model2 != nil {
		t.Fatalf("Sat cache hit returned a model; hits must return nil")
	}
	if s.Stats.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", s.Stats.CacheHits)
	}
}

// TestCacheUnknownResultNotCached: a query killed by the conflict budget
// yields Unknown and must leave no cache entry behind.
func TestCacheUnknownResultNotCached(t *testing.T) {
	c := NewContext()
	// Proving the 10-bit theorem needs real search, far more than a
	// 1-conflict budget allows.
	f := negTheorem(c, "x", 10)
	s := NewSolver(c)
	s.CacheResults = true
	s.ConflictBudget = 1
	res, _, err := s.CheckSat(f)
	if res != ResultUnknown || err == nil {
		t.Skipf("query decided within 1 conflict (res=%v); cannot exercise Unknown path", res)
	}
	if len(s.cache) != 0 {
		t.Fatalf("Unknown result was cached; %d entries", len(s.cache))
	}
	// Without the budget the same solver decides the query and caches it.
	s.ConflictBudget = 0
	res2, _, err := s.CheckSat(f)
	if err != nil {
		t.Fatal(err)
	}
	if res2 == ResultUnknown {
		t.Fatalf("unbudgeted solve still Unknown")
	}
	if len(s.cache) != 1 {
		t.Fatalf("decided verdict not cached; %d entries", len(s.cache))
	}
}
