package smt

import (
	"time"

	"repro/internal/sat"
)

// Cube-and-conquer: the top of the escalation ladder (see portfolio.go).
// A query that survives its doubling probes past the conflict watermark
// is not stuck on an unlucky restart schedule — it is structurally hard,
// so instead of restarting the same search again the instance is split:
// sat.BuildCubes runs a lookahead pass over a snapshot and emits the
// leaves of a small decision tree as assumption sets, and the query's
// own solver conquers them one by one. A Sat cube decides the query
// instantly; refuting every cube refutes it, with a certificate that is
// an ordinary DRAT session of that solver — no new code enters the
// trust base.

// solveCubed splits the primary's instance and conquers the cubes in
// place. budget bounds the conquest's total conflicts (0 = unlimited).
// Returns ran=false when the instance was not worth splitting — refuted
// by unit propagation or lookahead alone, or with fewer than two live
// leaves — in which case the caller falls back to solo search.
func (s *Solver) solveCubed(primary *sat.Solver, budget int64, assumps ...sat.Lit) (st sat.Status, ran bool) {
	// The snapshot only feeds the lookahead; the conquest itself runs on
	// the primary, so learnt clauses may guide the split even when
	// recording proofs.
	nv, cnf := primary.Snapshot()
	buildStart := time.Now()
	cs := sat.BuildCubes(nv, cnf, assumps, sat.CubeOptions{MaxVars: cubeVars})
	s.Metrics.Add("cube.build.ms", time.Since(buildStart).Milliseconds())
	if cs == nil {
		s.Metrics.Add("cube.nosplit", 1)
		return sat.Unknown, false
	}
	s.Stats.CubeEscalations++
	s.Stats.CubesGenerated += int64(len(cs.Cubes))
	return s.conquerInPlace(primary, cs, budget, assumps), true
}

// conquerInPlace drains every cube on the primary solver itself: cube i is
// solved under the query's assumptions extended with the cube's literals,
// and each refutation is pinned into the database as the learnt clause
// ¬assumps ∨ ¬cube — RUP at that point of the primary's log, because the
// refuting conflict surfaced while only those assumptions were enqueued.
// The primary already holds the instance and every learnt clause its
// probes earned, and each refuted cube strengthens every later cube, the
// solo fallback and, in incremental sessions, every later query. When all
// cubes are refuted the internal tree nodes collapse the same way down to
// ¬assumps, which is exactly the final obligation the caller's recording
// path checks.
func (s *Solver) conquerInPlace(primary *sat.Solver, cs *sat.CubeSet, budget int64, assumps []sat.Lit) sat.Status {
	userBudget := primary.ConflictBudget
	defer func() { primary.ConflictBudget = userBudget }()

	var aug, neg []sat.Lit
	negation := func(cube []sat.Lit) []sat.Lit {
		neg = neg[:0]
		for _, a := range assumps {
			neg = append(neg, a.Not())
		}
		for _, l := range cube {
			neg = append(neg, l.Not())
		}
		return neg
	}

	remaining := budget
	start := time.Now()
	refuted, unknown := 0, false
	for i, cube := range cs.Cubes {
		if budget > 0 && remaining <= 0 {
			unknown = true
			break
		}
		if !primary.Deadline.IsZero() && i >= 2 {
			// Pace check: an all-cubes-unsat win needs every cube refuted
			// before the deadline. If the remaining cubes project past it,
			// the win is out of reach — stop and leave the window to the
			// solo fallback, which keeps every clause learnt so far.
			avg := time.Since(start) / time.Duration(i)
			if avg*time.Duration(len(cs.Cubes)-i) > time.Until(primary.Deadline) {
				s.Metrics.Add("cube.pace.bail", 1)
				unknown = true
				break
			}
		}
		primary.ConflictBudget = remaining
		aug = append(append(aug[:0], assumps...), cube...)
		before := primary.Conflicts
		st := primary.Solve(aug...)
		if budget > 0 {
			remaining -= primary.Conflicts - before
		}
		if st == sat.Sat {
			s.Stats.CubesRefuted += int64(refuted)
			s.Stats.CubesSat++
			return sat.Sat
		}
		if st != sat.Unsat {
			unknown = true
			break
		}
		refuted++
		primary.LearnClause(negation(cube)...)
	}
	s.Stats.CubesRefuted += int64(refuted)
	if !unknown && refuted == len(cs.Cubes) {
		for _, p := range cs.Internal {
			primary.LearnClause(negation(p)...)
		}
		primary.LearnClause(negation(nil)...)
		s.Metrics.Add("cube.unsat", 1)
		return sat.Unsat
	}
	s.Metrics.Add("cube.unknown", 1)
	return sat.Unknown
}
