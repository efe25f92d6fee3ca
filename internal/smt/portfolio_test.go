package smt

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/proof"
	"repro/internal/telemetry"
)

// distinctUnder builds the pigeonhole-flavored constraint "n distinct
// values, each below bound". Unsat iff n > bound, and resolution-hard
// enough near the boundary to guarantee real CDCL conflicts — which is
// what forces escalation when After is tiny.
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

// TestPortfolioMatchesPlain: solvers sharing one Portfolio, as a run's
// workers do, and escalating every query that survives a one-conflict
// probe must return exactly the verdicts of a plain solver, both cold (a
// fresh instance per query) and incremental.
func TestPortfolioMatchesPlain(t *testing.T) {
	var escalations int64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ctx := NewContext()
		pf := &Portfolio{After: 1, CubeAfter: 1} // escalate everything non-trivial
		laddered := NewSolver(ctx)
		laddered.Portfolio = pf
		inc := NewSolver(ctx)
		inc.Incremental = true
		inc.Portfolio = pf

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
			got, _, errLaddered := laddered.CheckSat(form)
			gotInc, _, errInc := inc.CheckSat(form)
			if (errCold == nil) != (errLaddered == nil) || (errCold == nil) != (errInc == nil) {
				t.Logf("seed %d q %d: error mismatch cold=%v laddered=%v inc=%v",
					seed, q, errCold, errLaddered, errInc)
				return false
			}
			if errCold != nil {
				continue
			}
			if got != want || gotInc != want {
				t.Logf("seed %d q %d: cold=%v laddered=%v inc=%v", seed, q, want, got, gotInc)
				return false
			}
		}
		escalations += laddered.Stats.CubeEscalations + inc.Stats.CubeEscalations
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if escalations == 0 {
		t.Fatal("no query ever escalated: the portfolio path was not exercised")
	}
}

// newTestRecorder returns a recorder streaming into a fresh proof
// directory, and a finisher that closes the recorder and returns the
// directory for CheckDir.
func newTestRecorder(t *testing.T, name string) (*proof.Recorder, func() string) {
	t.Helper()
	dir := t.TempDir()
	rec, err := proof.NewRecorder(dir, name)
	if err != nil {
		t.Fatal(err)
	}
	return rec, func() string {
		t.Helper()
		if _, err := rec.Close(false); err != nil {
			t.Fatal(err)
		}
		return dir
	}
}

// TestPortfolioCertsVerify: under a conflict budget that a cube conquest
// can run out of, the negations of the cubes it did refute stay in the
// query's session as learnt steps, and the solo fallback (or, on the
// incremental path, a later query) builds on them. Every certificate
// such a run emits must still verify from scratch with CheckDir.
func TestPortfolioCertsVerify(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", incremental), func(t *testing.T) {
			ctx := NewContext()
			rec, finish := newTestRecorder(t, fmt.Sprintf("portfolio-inc-%v", incremental))
			s := NewSolver(ctx)
			s.Recorder = rec
			s.Portfolio = &Portfolio{After: 1, CubeAfter: 1}
			s.Metrics = telemetry.NewMetrics()
			s.Incremental = incremental
			s.ConflictBudget = 600

			queries := []struct {
				form *Term
				want Result
			}{
				{distinctUnder(ctx, "a", 7, 3, 6), ResultUnsat},
				{distinctUnder(ctx, "b", 6, 3, 6), ResultSat},
				{distinctUnder(ctx, "c", 8, 3, 7), ResultUnsat},
				{distinctUnder(ctx, "d", 6, 3, 5), ResultUnsat},
			}
			decidedAfterGiveUp := 0
			for i, q := range queries {
				gaveUp := s.Metrics.Counter("cube.unknown")
				res, _, err := s.CheckSat(q.form)
				if errors.Is(err, ErrBudget) {
					continue
				}
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if res != q.want {
					t.Fatalf("query %d: got %v, want %v", i, res, q.want)
				}
				if s.Metrics.Counter("cube.unknown") > gaveUp {
					decidedAfterGiveUp++
				}
			}
			if decidedAfterGiveUp == 0 {
				t.Fatal("no query was decided after its cube conquest gave up: the partial-conquest path was not exercised")
			}

			report, err := proof.CheckDir(finish())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range report.Rejections {
				t.Errorf("rejection: %s", r)
			}
			if report.ByKind[proof.KindDRAT] < 2 {
				t.Errorf("expected at least 2 DRAT certificates, got %d", report.ByKind[proof.KindDRAT])
			}
		})
	}
}

// TestLadderWatermarkFallback: without a wall budget the escalation gate
// opens after the first probe, so a query short of the cube watermark
// must reach the cube gate, be counted as skipped there, and finish solo
// — with the verdicts and certificate kinds of a solver without a
// portfolio.
func TestLadderWatermarkFallback(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", incremental), func(t *testing.T) {
			ctx := NewContext()
			queries := []*Term{
				distinctUnder(ctx, "a", 7, 3, 6),
				distinctUnder(ctx, "b", 6, 3, 6),
				distinctUnder(ctx, "c", 8, 3, 7),
			}
			solve := func(pf *Portfolio, m *telemetry.Metrics) ([]Result, *proof.CheckReport) {
				rec, finish := newTestRecorder(t, fmt.Sprintf("ladder-%v-%v", incremental, pf != nil))
				s := NewSolver(ctx)
				s.Recorder = rec
				s.Portfolio = pf
				s.Metrics = m
				s.Incremental = incremental
				var got []Result
				for i, q := range queries {
					res, _, err := s.CheckSat(q)
					if err != nil {
						t.Fatalf("query %d: %v", i, err)
					}
					got = append(got, res)
				}
				report, err := proof.CheckDir(finish())
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range report.Rejections {
					t.Errorf("rejection: %s", r)
				}
				return got, report
			}

			pf := &Portfolio{After: 1, CubeAfter: 1 << 40}
			m := telemetry.NewMetrics()
			got, report := solve(pf, m)
			want, wantReport := solve(nil, nil)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("verdicts %v, want %v", got, want)
			}
			if report.Queries != wantReport.Queries || fmt.Sprint(report.ByKind) != fmt.Sprint(wantReport.ByKind) {
				t.Errorf("certificates %d %v, want %d %v",
					report.Queries, report.ByKind, wantReport.Queries, wantReport.ByKind)
			}
			if m.Counter("cube.skip.watermark") == 0 {
				t.Error("no query reached the cube gate short of the watermark")
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
