package smt

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/proof"
	"repro/internal/telemetry"
)

// TestCubeMatchesPlain: with every non-trivial query escalating to
// cube-and-conquer, verdicts must match a plain solver's exactly, both
// cold (a fresh instance per query) and incremental — the row-parity
// guarantee the harness relies on.
func TestCubeMatchesPlain(t *testing.T) {
	var escalations int64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ctx := NewContext()
		cubed := NewSolver(ctx)
		cubed.Portfolio = &Portfolio{After: 1, CubeAfter: 1}
		inc := NewSolver(ctx)
		inc.Incremental = true
		inc.Portfolio = &Portfolio{After: 1, CubeAfter: 1}

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
	s.Portfolio = &Portfolio{After: 1, CubeAfter: 1}
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
// all-cubes-unsat refutations included, both cold (a fresh instance and
// session per query) and incremental — must verify from scratch with
// CheckDir. The conquest runs in the query's own session, so it must open
// no DRAT session beyond those the same queries open with DisableCube.
func TestCubeCertsVerify(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", incremental), func(t *testing.T) {
			ctx := NewContext()
			queries := []struct {
				form *Term
				want Result
			}{
				{distinctUnder(ctx, "a", 7, 3, 6), ResultUnsat},
				{distinctUnder(ctx, "b", 6, 3, 6), ResultSat},
				{distinctUnder(ctx, "c", 8, 3, 7), ResultUnsat},
				{distinctUnder(ctx, "d", 6, 3, 5), ResultUnsat},
			}
			// run solves the queries under a recorder and returns the
			// solver, the checked report and the trace's session count.
			run := func(disableCube bool) (*Solver, *proof.CheckReport, int) {
				name := fmt.Sprintf("cube-inc-%v-nocube-%v", incremental, disableCube)
				rec, finish := newTestRecorder(t, name)
				s := NewSolver(ctx)
				s.Recorder = rec
				s.Portfolio = &Portfolio{After: 1, CubeAfter: 1}
				s.DisableCube = disableCube
				s.Metrics = telemetry.NewMetrics()
				s.Incremental = incremental
				for i, q := range queries {
					res, _, err := s.CheckSat(q.form)
					if err != nil {
						t.Fatalf("query %d: %v", i, err)
					}
					if res != q.want {
						t.Fatalf("query %d: got %v, want %v", i, res, q.want)
					}
				}
				dir := finish()
				report, err := proof.CheckDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range report.Rejections {
					t.Errorf("rejection: %s", r)
				}
				return s, report, traceSessions(t, filepath.Join(dir, proof.FileBase(name)+proof.DratSuffix))
			}

			s, report, sessions := run(false)
			if s.Stats.CubeEscalations == 0 {
				t.Fatal("no query escalated to cube-and-conquer")
			}
			if s.Metrics.Counter("cube.unsat") == 0 {
				t.Fatal("no all-cubes-unsat conquest: the refutation path was not exercised")
			}
			t.Logf("escalations=%d generated=%d refuted=%d sat=%d",
				s.Stats.CubeEscalations, s.Stats.CubesGenerated,
				s.Stats.CubesRefuted, s.Stats.CubesSat)
			if report.ByKind[proof.KindDRAT] < 3 {
				t.Errorf("expected at least 3 DRAT certificates, got %d", report.ByKind[proof.KindDRAT])
			}
			if _, _, plain := run(true); sessions != plain {
				t.Errorf("cube-escalated run opened %d DRAT sessions, DisableCube %d", sessions, plain)
			}
		})
	}
}

// traceSessions counts the distinct sessions of a binary DRAT trace.
func traceSessions(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[int]bool{}
	if err := proof.WalkDrat(f, func(sess int, _ byte, _ []int32) error {
		seen[sess] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return len(seen)
}
