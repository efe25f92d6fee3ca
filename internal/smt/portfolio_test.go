package smt

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/proof"
)

// distinctUnder builds the pigeonhole-flavored constraint "n distinct
// values, each below bound". Unsat iff n > bound, and resolution-hard
// enough near the boundary to guarantee real CDCL conflicts — which is
// what forces a portfolio race when After is tiny.
func distinctUnder(ctx *Context, tag string, n int, width uint8, bound uint64) *Term {
	vars := make([]*Term, n)
	form := ctx.True()
	for i := range vars {
		vars[i] = ctx.VarBV(fmt.Sprintf("%s%d", tag, i), width)
		form = ctx.AndB(form, ctx.Ult(vars[i], ctx.BV(bound, width)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			form = ctx.AndB(form, ctx.Not(ctx.Eq(vars[i], vars[j])))
		}
	}
	return form
}

// TestPortfolioMatchesPlain: a solver racing every query that survives a
// one-conflict probe must return exactly the verdicts of a plain solver,
// on both the one-shot and the incremental paths. This is the row-parity
// guarantee the harness relies on when it lends idle worker slots.
func TestPortfolioMatchesPlain(t *testing.T) {
	var races int64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ctx := NewContext()
		pf := NewPortfolio(3)
		pf.After = 1 // race everything non-trivial
		raced := NewSolver(ctx)
		raced.Portfolio = pf
		raced.Inprocess = true
		inc := NewSolver(ctx)
		inc.Incremental = true
		inc.Portfolio = pf
		inc.Inprocess = true

		queries := []*Term{
			// Guaranteed-conflict queries on both sides of the boundary.
			distinctUnder(ctx, "u", 6, 3, 5), // unsat
			distinctUnder(ctx, "s", 5, 3, 5), // sat
		}
		for q := 0; q < 3; q++ {
			form := ctx.Eq(randomTerm(ctx, rng, 4, 3), randomTerm(ctx, rng, 4, 3))
			if rng.Intn(2) == 0 {
				form = ctx.Not(form)
			}
			queries = append(queries, form)
		}
		for q, form := range queries {
			cold := NewSolver(ctx)
			want, _, errCold := cold.CheckSat(form)
			got, _, errRaced := raced.CheckSat(form)
			gotInc, _, errInc := inc.CheckSat(form)
			if (errCold == nil) != (errRaced == nil) || (errCold == nil) != (errInc == nil) {
				t.Logf("seed %d q %d: error mismatch cold=%v raced=%v inc=%v",
					seed, q, errCold, errRaced, errInc)
				return false
			}
			if errCold != nil {
				continue
			}
			if got != want || gotInc != want {
				t.Logf("seed %d q %d: cold=%v raced=%v inc=%v", seed, q, want, got, gotInc)
				return false
			}
		}
		races += raced.Stats.Races + inc.Stats.Races
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if races == 0 {
		t.Fatal("no query ever raced: the portfolio path was not exercised")
	}
}

// newTestRecorder returns a recorder streaming into a fresh
// self-contained proof directory, and a finisher that closes the
// recorder and its writer and returns the directory for CheckDir.
func newTestRecorder(t *testing.T, name string) (*proof.Recorder, func() string) {
	t.Helper()
	dir := t.TempDir()
	dw, err := proof.NewFunctionDirWriter(dir, name)
	if err != nil {
		t.Fatal(err)
	}
	rec := dw.NewRecorder(name)
	return rec, func() string {
		t.Helper()
		if _, err := rec.Close(false); err != nil {
			t.Fatal(err)
		}
		if err := dw.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
}

// TestPortfolioCertsVerify: with a Recorder attached, every certificate a
// portfolio run emits — including traces recorded from a winning racer's
// self-contained refutation — must verify from scratch with CheckDir.
func TestPortfolioCertsVerify(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", incremental), func(t *testing.T) {
			ctx := NewContext()
			rec, finish := newTestRecorder(t, fmt.Sprintf("portfolio-inc-%v", incremental))
			pf := NewPortfolio(3)
			pf.After = 1
			s := NewSolver(ctx)
			s.Recorder = rec
			s.Portfolio = pf
			s.Inprocess = true
			s.Incremental = incremental

			queries := []struct {
				form *Term
				want Result
			}{
				{distinctUnder(ctx, "a", 7, 3, 6), ResultUnsat},
				{distinctUnder(ctx, "b", 6, 3, 6), ResultSat},
				{distinctUnder(ctx, "c", 8, 3, 7), ResultUnsat},
				{distinctUnder(ctx, "d", 6, 3, 5), ResultUnsat},
			}
			for i, q := range queries {
				res, _, err := s.CheckSat(q.form)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if res != q.want {
					t.Fatalf("query %d: got %v, want %v", i, res, q.want)
				}
			}
			if s.Stats.Races == 0 {
				t.Fatal("no query raced despite After=1 on pigeonhole instances")
			}
			t.Logf("races=%d racer wins=%d", s.Stats.Races, s.Stats.RaceRacerWins)

			report, err := proof.CheckDir(finish())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range report.Rejections {
				t.Errorf("rejection: %s", r)
			}
			if report.ByKind[proof.KindDRAT] < 3 {
				t.Errorf("expected at least 3 DRAT certificates, got %d", report.ByKind[proof.KindDRAT])
			}
		})
	}
}

// TestBudgetVsDeadlineAttribution: Unknown must be blamed on the budget
// that actually ran out. Before PR 6 every sat.Unknown was reported as
// ErrBudget, so wall-clock starvation was misfiled in the tail reports.
func TestBudgetVsDeadlineAttribution(t *testing.T) {
	hard := func(ctx *Context, tag string) *Term { return distinctUnder(ctx, tag, 12, 4, 11) }

	t.Run("budget", func(t *testing.T) {
		ctx := NewContext()
		s := NewSolver(ctx)
		s.ConflictBudget = 3
		res, _, err := s.CheckSat(hard(ctx, "p"))
		if res != ResultUnknown || err != ErrBudget {
			t.Fatalf("got (%v, %v), want (Unknown, ErrBudget)", res, err)
		}
	})
	t.Run("deadline-expired", func(t *testing.T) {
		ctx := NewContext()
		s := NewSolver(ctx)
		s.ConflictBudget = 3 // both budgets constrained: deadline must win the blame
		s.Deadline = time.Now().Add(-time.Second)
		res, _, err := s.CheckSat(hard(ctx, "p"))
		if res != ResultUnknown || err != ErrDeadline {
			t.Fatalf("got (%v, %v), want (Unknown, ErrDeadline)", res, err)
		}
	})
	t.Run("deadline-mid-solve", func(t *testing.T) {
		ctx := NewContext()
		s := NewSolver(ctx)
		// Unlimited conflicts: the only way this hard instance stops early
		// is the deadline expiring inside the search loop, and that must
		// surface as ErrDeadline even though sat.Solve returned Unknown.
		s.Deadline = time.Now().Add(30 * time.Millisecond)
		res, _, err := s.CheckSat(distinctUnder(ctx, "q", 16, 4, 15))
		if res != ResultUnknown || err != ErrDeadline {
			t.Fatalf("got (%v, %v), want (Unknown, ErrDeadline)", res, err)
		}
	})
}

// TestCacheHitServedPastDeadline: an expired deadline gates solving, not
// answering. A shared-cache hit costs nothing, so it must be served (and
// certified by reference) even when the per-function budget is gone.
func TestCacheHitServedPastDeadline(t *testing.T) {
	ctx := NewContext()
	cache := NewCache()
	x := ctx.VarBV("x", 8)
	y := ctx.VarBV("y", 8)
	satQ := ctx.Eq(ctx.Add(x, y), ctx.BV(5, 8))
	unsatQ := distinctUnder(ctx, "z", 4, 2, 3)

	warm := NewSolver(ctx)
	warm.Cache = cache
	if res, _, err := warm.CheckSat(satQ); err != nil || res != ResultSat {
		t.Fatalf("warm sat query: (%v, %v)", res, err)
	}
	if res, _, err := warm.CheckSat(unsatQ); err != nil || res != ResultUnsat {
		t.Fatalf("warm unsat query: (%v, %v)", res, err)
	}

	late := NewSolver(ctx)
	late.Cache = cache
	late.Deadline = time.Now().Add(-time.Hour)
	if res, _, err := late.CheckSat(satQ); err != nil || res != ResultSat {
		t.Fatalf("cached sat query past deadline: (%v, %v), want (Sat, nil)", res, err)
	}
	if res, _, err := late.CheckSat(unsatQ); err != nil || res != ResultUnsat {
		t.Fatalf("cached unsat query past deadline: (%v, %v), want (Unsat, nil)", res, err)
	}
	if late.Stats.CacheHits != 2 {
		t.Fatalf("cache hits = %d, want 2", late.Stats.CacheHits)
	}
	// An uncached query still hits the deadline gate.
	if res, _, err := late.CheckSat(ctx.Eq(x, ctx.BV(1, 8))); res != ResultUnknown || err != ErrDeadline {
		t.Fatalf("uncached query past deadline: (%v, %v), want (Unknown, ErrDeadline)", res, err)
	}
}
