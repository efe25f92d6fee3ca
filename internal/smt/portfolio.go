package smt

import (
	"time"

	"repro/internal/sat"
)

// The adaptive escalation ladder. An SMT query whose SAT search survives
// a probe budget of conflicts climbs a ladder of escalations, each stage
// gated so it only fires when the cheaper stage below it has demonstrably
// failed:
//
//	stage 1 — solo probes: the primary searches alone under the probe
//	  budget. Until half of the wall-clock budget has been burned, an
//	  Unknown probe is answered with another solo probe at double the
//	  conflict budget — most queries that outlive one probe finish under
//	  the next.
//	stage 2 — cube-and-conquer: a query past the conflict watermark (or
//	  whose first probe overran its own budget inside giant restarts) is
//	  structurally hard; restarting the same search again buys nothing, so
//	  the instance is split instead — see cube.go and sat.BuildCubes.
//	fallback — a query the cube stage skipped or could not decide
//	  finishes solo with whatever conflict budget remains.
//
// Every stage runs on the query's own solver, so the verdict's model or
// DRAT trace always comes from it and certification is unchanged.

// Portfolio holds the ladder's probe budgets. One value is shared
// read-only by every solver of a run; the zero Portfolio means "ladder
// on, default budgets", and a nil one turns the ladder off.
type Portfolio struct {
	// After is the probe conflict budget: a query escalates only after
	// its primary search exceeds this many conflicts (0 = default 2000).
	After int64
	// CubeAfter is the conflict watermark for cubing: a query escalates
	// to cube-and-conquer only after its probes have spent this many
	// conflicts without a verdict (0 = default 4000).
	CubeAfter int64
}

func (p *Portfolio) afterConflicts() int64 {
	if p.After > 0 {
		return p.After
	}
	return 2000
}

func (p *Portfolio) cubeAfter() int64 {
	if p.CubeAfter > 0 {
		return p.CubeAfter
	}
	return 4000
}

// minCubeWindow is the least remaining wall time worth starting a cube
// escalation in: below it the lookahead build cost cannot be recouped
// before the deadline, so the window is left to the solo fallback.
const minCubeWindow = 500 * time.Millisecond

// cubeVars is the branching depth of the cube-and-conquer stage: up to
// 2^cubeVars cubes per escalated query.
const cubeVars = 4

// escalationGateOpen reports whether the ladder should stop probing solo
// and escalate now. Without a wall-clock budget there is nothing to adapt
// to and the gate is always open — the pre-adaptive behavior the parity
// tests pin. With one, escalation waits until half of the budget has been
// burned: a query early in its window is overwhelmingly likely to finish
// under a doubled solo probe, while a query that has already probed away
// half of the whole window needs the cube stage while there is still
// window left for it to win in.
func (s *Solver) escalationGateOpen() bool {
	if s.Budget <= 0 || s.Deadline.IsZero() {
		return true
	}
	return time.Until(s.Deadline) < s.Budget/2
}

func (s *Solver) cubeEnabled() bool {
	return !s.DisableCube
}

// solveLadder runs primary.Solve under the escalation ladder described
// in the comment above; the caller reads the model or the proof from
// primary whichever stage decided the query.
func (s *Solver) solveLadder(primary *sat.Solver, assumps ...sat.Lit) sat.Status {
	pf := s.Portfolio
	if pf == nil {
		return primary.Solve(assumps...)
	}
	user := primary.ConflictBudget
	probe := pf.afterConflicts()
	if user > 0 && user <= probe {
		// The whole budget fits in the probe: escalation could never trigger.
		return primary.Solve(assumps...)
	}

	// Stage 1: solo probes, doubling while the escalation gate is closed.
	// Probe budgets are conflict counts, and on a slow instance one
	// doubled probe can run wall-clock straight into the deadline — so
	// with a wall budget the probe phase is additionally capped at the
	// gate-open instant, guaranteeing the later stages the half-window the
	// gate promised them.
	var stageCap time.Time
	userDeadline := primary.Deadline
	if s.Budget > 0 && !userDeadline.IsZero() {
		stageCap = userDeadline.Add(-s.Budget / 2)
	}
	var spent int64
	slowProbe := false
	slowBar := time.Duration(0)
	if s.Budget > 0 {
		slowBar = s.Budget / 8
	}
	for esc := uint(0); ; esc++ {
		b := probe << esc
		if user > 0 {
			rem := user - spent
			if rem <= 0 {
				return sat.Unknown
			}
			if b > rem {
				b = rem
			}
		}
		primary.ConflictBudget = b
		if !stageCap.IsZero() && time.Now().Before(stageCap) {
			primary.Deadline = stageCap
		}
		before := primary.Conflicts
		start := time.Now()
		st := primary.Solve(assumps...)
		used := primary.Conflicts - before
		spent += used
		primary.ConflictBudget = user
		primary.Deadline = userDeadline
		if st != sat.Unknown || s.pastDeadline() {
			return st
		}
		if esc == 0 && used-b > b && s.cubeEnabled() && spent >= pf.cubeAfter() {
			// The budget is only polled at restart boundaries, so a probe
			// that overshot its own budget is inside enormous restarts.
			// Restarting that search is hopeless — split the instance now.
			s.Metrics.Add("cube.overrun", 1)
			break
		}
		if esc == 0 && slowBar > 0 && time.Since(start) > slowBar {
			// The first probe alone ate an eighth of the whole wall budget:
			// the instance's conflict rate is so low that solo CDCL cannot
			// possibly finish inside the window, and every further probe
			// just shrinks what the cubes have left to win in. Escalate
			// now, while most of the window remains.
			s.Metrics.Add("portfolio.probe.slow", 1)
			slowProbe = true
			break
		}
		if s.escalationGateOpen() {
			break
		}
		s.Metrics.Add("portfolio.probe.extend", 1)
	}
	var rem int64 // conflicts left for the later stages (0 = unlimited)
	if user > 0 {
		if rem = user - spent; rem <= 0 {
			return sat.Unknown
		}
	}

	// Stage 2: cube-and-conquer, gated on the conflict watermark. The
	// watermark is a hardness proxy, and on a slow instance conflicts
	// accrue slowly — a query that probed away its entire solo window
	// (the stage-1 cap has passed) is past the bar the conflict count
	// proxies for, whatever its spend says. The cube stage gets the whole
	// remaining window — halving it for a solo reserve was tried and cost
	// more cube conversions than the reserve recovered — but an Unknown
	// cube verdict still falls through to the solo leg below, which is
	// what finishes the query when a conflict-budgeted run outlives an
	// unsplittable instance.
	watermarkMet := spent >= pf.cubeAfter() || slowProbe
	if !watermarkMet && !stageCap.IsZero() && time.Now().After(stageCap) {
		watermarkMet = true
	}
	if s.cubeEnabled() {
		switch {
		case s.pastDeadline():
			s.Metrics.Add("cube.skip.deadline", 1)
		case !primary.Deadline.IsZero() && time.Until(primary.Deadline) < minCubeWindow:
			// Splitting pays a lookahead build (~100ms on corpus-sized
			// snapshots) before the first cube is solved; in a sliver of
			// window the build alone would eat the solo fallback's last
			// chance. Short windows go straight to the fallback.
			s.Metrics.Add("cube.skip.window", 1)
		case !watermarkMet:
			s.Metrics.Add("cube.skip.watermark", 1)
		default:
			if st, ran := s.solveCubed(primary, rem, assumps...); ran && st != sat.Unknown {
				return st
			}
		}
	}

	// Fallback: the cube stage was disabled, skipped, unsplittable or
	// undecided — finish solo with what remains.
	primary.ConflictBudget = rem
	st := primary.Solve(assumps...)
	primary.ConflictBudget = user
	return st
}
