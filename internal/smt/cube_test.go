package smt

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/proof"
	"repro/internal/sat"
)

// drainedPortfolio returns a pool whose tokens are all held, so the race
// stage starves and the ladder falls through to cube-and-conquer — which
// always has the query's own thread as a worker and so runs regardless.
// CubeAfter 1 makes any query with at least one probe conflict eligible.
func drainedPortfolio() *Portfolio {
	pf := NewPortfolio(1)
	pf.After = 1
	pf.CubeAfter = 1
	pf.Acquire()
	return pf
}

// TestCubeMatchesPlain: with the race starved and every non-trivial query
// escalating to cube-and-conquer, verdicts must match a plain solver's
// exactly, on both the one-shot and the incremental paths — the same
// row-parity guarantee the portfolio race is held to.
func TestCubeMatchesPlain(t *testing.T) {
	var escalations int64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ctx := NewContext()
		cubed := NewSolver(ctx)
		cubed.Portfolio = drainedPortfolio()
		cubed.Inprocess = true
		inc := NewSolver(ctx)
		inc.Incremental = true
		inc.Portfolio = drainedPortfolio()
		inc.Inprocess = true

		queries := []*Term{
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
			got, _, errCubed := cubed.CheckSat(form)
			gotInc, _, errInc := inc.CheckSat(form)
			if (errCold == nil) != (errCubed == nil) || (errCold == nil) != (errInc == nil) {
				t.Logf("seed %d q %d: error mismatch cold=%v cubed=%v inc=%v",
					seed, q, errCold, errCubed, errInc)
				return false
			}
			if errCold != nil {
				continue
			}
			if got != want || gotInc != want {
				t.Logf("seed %d q %d: cold=%v cubed=%v inc=%v", seed, q, want, got, gotInc)
				return false
			}
		}
		escalations += cubed.Stats.CubeEscalations + inc.Stats.CubeEscalations
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if escalations == 0 {
		t.Fatal("no query ever escalated to cube-and-conquer")
	}
}

// TestCubeDisabledMatchesPlain: the -no-cube ablation must fall back to
// solo search with identical verdicts and zero cube activity.
func TestCubeDisabledMatchesPlain(t *testing.T) {
	ctx := NewContext()
	s := NewSolver(ctx)
	s.Portfolio = drainedPortfolio()
	s.DisableCube = true
	queries := []struct {
		form *Term
		want Result
	}{
		{distinctUnder(ctx, "u", 6, 3, 5), ResultUnsat},
		{distinctUnder(ctx, "s", 5, 3, 5), ResultSat},
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
	if s.Stats.CubeEscalations != 0 || s.Stats.CubesGenerated != 0 {
		t.Fatalf("cube stats nonzero with DisableCube: %+v", s.Stats)
	}
}

// TestCubeCertsVerify: every certificate a cube-escalated run emits —
// including the composed all-cubes-unsat refutations, on both the
// one-shot (empty-clause obligation) and incremental (activation-literal
// input) paths — must verify from scratch with CheckDir.
func TestCubeCertsVerify(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", incremental), func(t *testing.T) {
			ctx := NewContext()
			rec, finish := newTestRecorder(t, fmt.Sprintf("cube-inc-%v", incremental))
			s := NewSolver(ctx)
			s.Recorder = rec
			s.Portfolio = drainedPortfolio()
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
			if s.Stats.CubeEscalations == 0 {
				t.Fatal("no query escalated to cube-and-conquer")
			}
			if s.Stats.CubesRefuted == 0 {
				t.Fatal("no cube was ever refuted: composition path not exercised")
			}
			t.Logf("escalations=%d generated=%d refuted=%d sat=%d",
				s.Stats.CubeEscalations, s.Stats.CubesGenerated,
				s.Stats.CubesRefuted, s.Stats.CubesSat)

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

// TestSolveCubedWorkStealing drives solveCubed directly with idle slots
// available, so stolen workers drain the shared queue alongside the
// query's own thread; the all-cubes-unsat verdict must hold whatever the
// interleaving, and its composed certificate must replay.
func TestSolveCubedWorkStealing(t *testing.T) {
	ctx := NewContext()
	rec, finish := newTestRecorder(t, "cube-steal")
	defer finish()
	s := NewSolver(ctx)
	s.Recorder = rec
	pf := NewPortfolio(3)
	pf.CubeVars = 4
	s.Portfolio = pf

	// Build a primary SAT instance directly: pigeonhole 7 into 6.
	const pigeons, holes = 7, 6
	primary := sat.New()
	va := func(p, h int) sat.Lit { return sat.MkLit(p*holes+h, false) }
	for v := 0; v < pigeons*holes; v++ {
		primary.NewVar()
	}
	for p := 0; p < pigeons; p++ {
		row := make([]sat.Lit, holes)
		for h := 0; h < holes; h++ {
			row[h] = va(p, h)
		}
		primary.AddClause(row...)
	}
	for h := 0; h < holes; h++ {
		for p := 0; p < pigeons; p++ {
			for q := p + 1; q < pigeons; q++ {
				primary.AddClause(va(p, h).Not(), va(q, h).Not())
			}
		}
	}

	st, winner, ran := s.solveCubed(primary, 0)
	if !ran {
		t.Fatal("PHP(7,6) did not cube")
	}
	if st != sat.Unsat {
		t.Fatalf("PHP(7,6) cubed verdict = %v, want Unsat", st)
	}
	if s.Stats.CubesRefuted != s.Stats.CubesGenerated {
		t.Fatalf("refuted %d of %d cubes", s.Stats.CubesRefuted, s.Stats.CubesGenerated)
	}
	if winner.Proof == nil {
		t.Fatal("all-cubes-unsat winner carries no composed certificate")
	}
	ck := proof.NewSessionChecker()
	for i := 0; i < winner.Proof.Len(); i++ {
		op, lits := winner.Proof.Step(i)
		d := make([]int32, len(lits))
		for j, l := range lits {
			if l.Neg() {
				d[j] = -int32(l.Var() + 1)
			} else {
				d[j] = int32(l.Var() + 1)
			}
		}
		var err error
		switch op {
		case sat.OpInput:
			err = ck.AddInput(d)
		case sat.OpLearn:
			err = ck.AddLearnt(d)
		case sat.OpDelete:
			err = ck.Delete(d)
		}
		if err != nil {
			t.Fatalf("composed step %d (op %q): %v", i, op, err)
		}
	}
	if err := ck.CheckFinal(nil); err != nil {
		t.Fatalf("composed certificate rejected: %v", err)
	}
	t.Logf("generated=%d refuted=%d steals=%d",
		s.Stats.CubesGenerated, s.Stats.CubesRefuted, s.Stats.CubeSteals)
}

// TestRacerConfigsDistinct: every racer index yields a distinct
// configuration — previously index 3 wrapped to racer 0's exact config
// and burned its slot on a duplicate search.
func TestRacerConfigsDistinct(t *testing.T) {
	seen := map[raceConfig]int{}
	for i := 0; i < 12; i++ {
		cfg := racerConfig(i)
		if j, dup := seen[cfg]; dup {
			t.Fatalf("racer %d and racer %d share a config: %+v", j, i, cfg)
		}
		seen[cfg] = i
	}
}

// TestRaceWastedAccounting: losing racers' CPU must show up in the
// wasted counters instead of vanishing from the phase reports.
func TestRaceWastedAccounting(t *testing.T) {
	ctx := NewContext()
	pf := NewPortfolio(3)
	pf.After = 1
	s := NewSolver(ctx)
	s.Portfolio = pf
	for i, tag := range []string{"a", "b", "c"} {
		res, _, err := s.CheckSat(distinctUnder(ctx, tag, 8, 3, 7))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if res != ResultUnsat {
			t.Fatalf("query %d: got %v, want unsat", i, res)
		}
	}
	if s.Stats.Races == 0 {
		t.Fatal("no query raced despite After=1")
	}
	if s.Stats.RaceWastedProps == 0 {
		t.Fatalf("races ran but zero wasted propagations accounted: %+v", s.Stats)
	}
	t.Logf("races=%d wasted conflicts=%d wasted props=%d",
		s.Stats.Races, s.Stats.RaceWastedConflicts, s.Stats.RaceWastedProps)
}
