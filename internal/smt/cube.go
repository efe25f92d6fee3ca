package smt

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sat"
)

// Cube-and-conquer: the top of the escalation ladder (see portfolio.go).
// A query that survives its probes and a full portfolio race is not stuck
// on an unlucky restart schedule — it is structurally hard, so instead of
// restarting the same search under yet another configuration the instance
// is split: sat.BuildCubes runs a lookahead pass over a snapshot and
// emits the leaves of a small decision tree as assumption sets, and the
// cubes are conquered across the query's own thread plus any idle
// portfolio slots, drained from a shared queue (work-stealing). A Sat
// cube decides the query instantly; refuting every cube refutes it, and
// the per-cube DRAT traces compose into one certificate
// (sat.ComposeCubeProof) that the unchanged RUP checker verifies — no new
// code enters the trust base.

// solveCubed splits the primary's instance and conquers the cubes.
// budget bounds each worker's total conflicts (0 = unlimited). Returns
// ran=false when the instance was not worth splitting — refuted by unit
// propagation or lookahead alone, or with fewer than two live leaves —
// in which case the caller falls back to solo search. On an
// all-cubes-unsat verdict the returned winner is a fresh solver whose
// Proof is the composed certificate, which the callers' racer-win
// recording paths consume unchanged.
func (s *Solver) solveCubed(primary *sat.Solver, budget int64, assumps ...sat.Lit) (sat.Status, *sat.Solver, bool) {
	pf := s.Portfolio
	// As with racers, a recording run must snapshot without learnt
	// clauses: every snapshot clause becomes a DRAT input axiom of the
	// composed certificate, and only problem clauses and root units are
	// granted by the certificate consumer.
	nv, cnf := primary.Snapshot(s.Recorder == nil)
	units := append([]sat.Lit(nil), assumps...)
	buildStart := time.Now()
	cs := sat.BuildCubes(nv, cnf, units, sat.CubeOptions{MaxVars: pf.cubeVars()})
	s.Metrics.Add("cube.build.ms", time.Since(buildStart).Milliseconds())
	if cs == nil {
		s.Metrics.Add("cube.nosplit", 1)
		return sat.Unknown, primary, false
	}
	s.Stats.CubeEscalations++
	s.Stats.CubesGenerated += int64(len(cs.Cubes))

	// The query's own thread always conquers; idle portfolio slots are
	// stolen for extra workers, never more than there are cubes to share.
	stolen := 0
	for stolen+1 < len(cs.Cubes) && stolen < pf.maxRacers() && pf.TryAcquire() {
		stolen++
	}
	if stolen == 0 {
		// Every slot is busy, so the conquest is sequential anyway — run it
		// on the primary itself instead of a fresh import. The primary
		// already holds the instance and every learnt clause its probes
		// earned; a cube is just an assumption-set Solve, and each refuted
		// cube's negation is learned back (sat.LearnClause, a RUP-checked
		// step in the primary's own session log) so the conquest
		// strengthens every later cube, the solo fallback, and — in
		// incremental sessions — every later query. On an all-cubes-unsat
		// verdict the collapse clauses end at the query's ordinary final
		// obligation, so the unchanged primary-win recording path applies.
		return s.conquerInPlace(primary, cs, budget, assumps)
	}
	workers := stolen + 1

	queue := make(chan int, len(cs.Cubes))
	for i := range cs.Cubes {
		queue <- i
	}
	close(queue)

	cancel := &sat.Stop{}
	var done int64 // cubes resolved across all workers, for the pace check
	type workerResult struct {
		solver  *sat.Solver
		trace   sat.CubeTrace
		sat     int // cube index found satisfiable, -1 if none
		refuted int
		drained int
		unknown bool
	}
	results := make([]workerResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &results[w]
			r.sat = -1
			solver := sat.New()
			solver.LBD = true
			// Like racers, cube workers never inprocess: the snapshot
			// already carries the primary's simplification, and a cube's
			// edge is the shrunken search space, not rediscovered rewrites.
			solver.SeedShuffle = sat.Splitmix64(0xcb0e5eed + uint64(w))
			solver.Deadline = primary.Deadline
			solver.Cancel = cancel
			if s.Recorder != nil {
				solver.Proof = &sat.ProofLog{}
			}
			for v := 0; v < nv; v++ {
				solver.NewVar()
			}
			for _, cl := range cnf {
				solver.AddClause(cl...)
			}
			for _, u := range units {
				solver.AddClause(u)
			}
			r.solver = solver
			r.trace.Log = solver.Proof
			remaining := budget
			start := time.Now()
			for idx := range queue {
				if budget > 0 && remaining <= 0 {
					r.unknown = true
					return
				}
				if !solver.Deadline.IsZero() && r.drained >= 2 {
					// Pace check: an all-cubes-unsat win needs every cube
					// refuted before the deadline. If this worker's share of
					// what's left projects past it, the conquest cannot win
					// collectively — bail now so the fallback solo search
					// (which kept the primary's learnt clauses) inherits the
					// rest of the window instead of a doomed conquest
					// burning it.
					left := len(cs.Cubes) - int(atomic.LoadInt64(&done))
					avg := time.Since(start) / time.Duration(r.drained)
					if avg*time.Duration(left/workers+1) > time.Until(solver.Deadline) {
						s.Metrics.Add("cube.pace.bail", 1)
						r.unknown = true
						return
					}
				}
				solver.ConflictBudget = remaining
				before := solver.Conflicts
				st := solver.Solve(cs.Cubes[idx]...)
				remaining -= solver.Conflicts - before
				r.drained++
				switch st {
				case sat.Sat:
					r.sat = idx
					cancel.Stop()
					return
				case sat.Unsat:
					r.refuted++
					atomic.AddInt64(&done, 1)
					if solver.Proof != nil {
						r.trace.Cubes = append(r.trace.Cubes, cs.Cubes[idx])
						r.trace.Marks = append(r.trace.Marks, solver.Proof.Len())
					}
				default:
					r.unknown = true
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < stolen; i++ {
		pf.Release()
	}

	refuted, steals := 0, 0
	unknown := false
	var satWinner *sat.Solver
	for w := range results {
		r := &results[w]
		// Cube workers do the verdict's real search, so their spend is
		// solver work, not portfolio waste — the callers only aggregate
		// the primary's counters, so fold the workers' in here.
		s.Stats.SATConflicts += r.solver.Conflicts
		s.Stats.SATDecisions += r.solver.Decisions
		refuted += r.refuted
		if w > 0 {
			steals += r.drained
		}
		if r.sat >= 0 {
			satWinner = r.solver
		}
		if r.unknown {
			unknown = true
		}
	}
	s.Stats.CubesRefuted += int64(refuted)
	s.Stats.CubeSteals += int64(steals)

	if satWinner != nil {
		s.Stats.CubesSat++
		return sat.Sat, satWinner, true
	}
	if !unknown && refuted == len(cs.Cubes) {
		// All cubes refuted: the instance is unsat. Hand back a fresh
		// solver carrying only the composed certificate, so the callers'
		// existing racer-win recording paths flush it unchanged.
		win := sat.New()
		if s.Recorder != nil {
			traces := make([]sat.CubeTrace, 0, workers)
			for w := range results {
				if results[w].refuted > 0 {
					traces = append(traces, results[w].trace)
				}
			}
			win.Proof = sat.ComposeCubeProof(cnf, units, traces, cs.Internal)
		}
		s.Metrics.Add("cube.unsat", 1)
		return sat.Unsat, win, true
	}
	s.Metrics.Add("cube.unknown", 1)
	return sat.Unknown, primary, true
}

// conquerInPlace drains every cube on the primary solver itself: cube i is
// solved under the query's assumptions extended with the cube's literals,
// and each refutation is pinned into the database as the learnt clause
// ¬assumps ∨ ¬cube — RUP at that point of the primary's log, because the
// refuting conflict surfaced while only those assumptions were enqueued.
// When all cubes are refuted the internal tree nodes collapse the same
// way down to ¬assumps (the empty clause for a one-shot query), which is
// exactly the final obligation the caller's recording path checks.
func (s *Solver) conquerInPlace(primary *sat.Solver, cs *sat.CubeSet, budget int64, assumps []sat.Lit) (sat.Status, *sat.Solver, bool) {
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
			// Same pace check as the stolen-slot workers: if the remaining
			// cubes project past the deadline, the collective win is out of
			// reach — stop and leave the window to the solo fallback.
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
			return sat.Sat, primary, true
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
		return sat.Unsat, primary, true
	}
	s.Metrics.Add("cube.unknown", 1)
	return sat.Unknown, primary, true
}
