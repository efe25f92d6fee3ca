package smt

import (
	"time"

	"repro/internal/sat"
)

// Portfolio racing and the adaptive escalation ladder. An SMT query whose
// SAT search survives a probe budget of conflicts climbs a ladder of
// escalations, each stage gated so it only fires when the cheaper stage
// below it has demonstrably failed:
//
//	stage 1 — solo probes: the primary searches alone under the probe
//	  budget. Until half of the wall-clock budget has been burned, an
//	  Unknown probe is answered with another solo probe at double the
//	  conflict budget — most queries that outlive one probe finish under
//	  the next, and racing them would burn idle slots for nothing (the
//	  regression that made the portfolio a net cost at generous budgets).
//	stage 2 — portfolio race: the query is raced across idle harness
//	  workers with diversified solver configurations (LBD on/off, restart
//	  cadence, phase polarity, activity seed), each derived from the
//	  racer index so every racer is distinct; the first decision cancels
//	  the rest through a shared sat.Stop token.
//	stage 3 — cube-and-conquer: a query that survives the race (or whose
//	  first probe overran its own budget inside giant restarts) is past
//	  the conflict watermark and structurally hard; restarting the same
//	  search again buys nothing, so the instance is split instead — see
//	  cube.go and sat.BuildCubes.
//
// The pool holds one token per harness worker: a worker lends its slot
// while it blocks in pipeline phases (parsing, ISel, symbolic stepping)
// and takes it back before solving, so racers and cube workers only ever
// consume capacity the run was wasting. The winner's solver — primary,
// racer, or cube worker — supplies the model or the DRAT trace, so
// certification is unchanged.

// Portfolio is a pool of solve slots shared by every solver of a run.
// One Portfolio is created per harness run (or per single-file tv
// invocation) and attached to each worker's Solver.
type Portfolio struct {
	tokens chan struct{}
	// After is the probe conflict budget: a query races only after its
	// primary search exceeds this many conflicts (0 = default 2000).
	After int64
	// MaxRacers bounds the slots one query may borrow (0 = default 3).
	MaxRacers int
	// CubeVars is the branching depth of the cube-and-conquer stage: up
	// to 2^CubeVars cubes per escalated query (0 = default 4).
	CubeVars int
	// CubeAfter is the conflict watermark for cubing: a query escalates
	// to cube-and-conquer only after its probes and race have spent this
	// many conflicts without a verdict (0 = default 4000).
	CubeAfter int64
}

// NewPortfolio returns a pool with one token per worker slot.
func NewPortfolio(slots int) *Portfolio {
	if slots < 1 {
		slots = 1
	}
	p := &Portfolio{tokens: make(chan struct{}, slots)}
	for i := 0; i < slots; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// Acquire blocks until a slot is free. Workers call it before compute-
// bound validation work; racers never block (TryAcquire).
func (p *Portfolio) Acquire() { <-p.tokens }

// Release returns a slot taken by Acquire or TryAcquire.
func (p *Portfolio) Release() { p.tokens <- struct{}{} }

// TryAcquire takes a slot only if one is idle right now.
func (p *Portfolio) TryAcquire() bool {
	select {
	case <-p.tokens:
		return true
	default:
		return false
	}
}

func (p *Portfolio) afterConflicts() int64 {
	if p.After > 0 {
		return p.After
	}
	return 2000
}

func (p *Portfolio) maxRacers() int {
	if p.MaxRacers > 0 {
		return p.MaxRacers
	}
	return 3
}

func (p *Portfolio) cubeVars() int {
	if p.CubeVars > 0 {
		return p.CubeVars
	}
	return 4
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

// raceConfig is one diversified solver configuration. The seeds are
// arbitrary odd 64-bit constants (golden-ratio family); what matters is
// that each racer explores a genuinely different search order than the
// primary, which keeps its default configuration and its learnt clauses.
type raceConfig struct {
	lbd      bool
	phasePos bool
	seed     uint64
	restart  int64
}

var raceConfigs = []raceConfig{
	{lbd: true, phasePos: true, seed: 0x9e3779b97f4a7c15, restart: 100},
	{lbd: true, phasePos: false, seed: 0xd1b54a32d192ed03, restart: 512},
	{lbd: false, phasePos: false, seed: 0x94d049bb133111eb, restart: 100},
}

// racerConfig is racer i's configuration: the base triple supplies the
// qualitative diversity (clause-database policy, phase polarity), while
// the shuffle seed and restart cadence are derived from the racer index.
// Previously racers beyond len(raceConfigs) wrapped to an identical
// config and burned their slot on a duplicate search.
func racerConfig(i int) raceConfig {
	cfg := raceConfigs[i%len(raceConfigs)]
	cfg.seed = sat.Splitmix64(cfg.seed + uint64(i))
	cfg.restart += int64(i/len(raceConfigs)) * 64
	return cfg
}

// raceGateOpen reports whether the ladder should stop probing solo and
// race now. Without a wall-clock budget there is nothing to adapt to and
// the gate is always open — the pre-adaptive behavior the parity tests
// pin. With one, racing waits until half of the budget has been
// burned: a query early in its window is overwhelmingly likely to finish
// under a doubled solo probe, and burning idle slots on it is what made
// the portfolio a net cost at generous budgets — while a query that has
// already probed away half of the whole window needs the stronger
// stages while there is still window left for them to win in.
func (s *Solver) raceGateOpen() bool {
	if s.Budget <= 0 || s.Deadline.IsZero() {
		return true
	}
	return time.Until(s.Deadline) < s.Budget/2
}

func (s *Solver) cubeEnabled() bool {
	return !s.DisableCube
}

// solveRaced runs primary.Solve under the escalation ladder described in
// the package comment above. Returns the verdict and the solver that
// produced it; the caller extracts the model or flushes the proof from
// the winner (for an all-cubes-unsat verdict the winner is a fresh
// solver carrying only the composed certificate). All goroutines are
// joined before returning, so the primary is never shared with a live
// racer or cube worker.
func (s *Solver) solveRaced(primary *sat.Solver, assumps ...sat.Lit) (sat.Status, *sat.Solver) {
	pf := s.Portfolio
	if pf == nil {
		return primary.Solve(assumps...), primary
	}
	user := primary.ConflictBudget
	probe := pf.afterConflicts()
	if user > 0 && user <= probe {
		// The whole budget fits in the probe: escalation could never trigger.
		return primary.Solve(assumps...), primary
	}

	// Stage 1: solo probes, doubling while the race gate is closed. Probe
	// budgets are conflict counts, and on a slow instance one doubled
	// probe can run wall-clock straight into the deadline — so with a
	// wall budget the probe phase is additionally capped at the gate-open
	// instant, guaranteeing the later stages the half-window the gate
	// promised them.
	var stageCap time.Time
	userDeadline := primary.Deadline
	if s.Budget > 0 && !userDeadline.IsZero() {
		stageCap = userDeadline.Add(-s.Budget / 2)
	}
	var spent int64
	skipRace, slowProbe := false, false
	slowBar := time.Duration(0)
	if s.Budget > 0 {
		slowBar = s.Budget / 8
	}
	for esc := uint(0); ; esc++ {
		b := probe << esc
		if user > 0 {
			rem := user - spent
			if rem <= 0 {
				return sat.Unknown, primary
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
			return st, primary
		}
		if esc == 0 && used-b > b && s.cubeEnabled() && spent >= pf.cubeAfter() {
			// The budget is only polled at restart boundaries, so a probe
			// that overshot its own budget is inside enormous restarts.
			// Restarting that search under other configurations is
			// hopeless — skip the race and split the instance instead.
			s.Metrics.Add("cube.overrun", 1)
			skipRace = true
			break
		}
		if esc == 0 && slowBar > 0 && time.Since(start) > slowBar {
			// The first probe alone ate an eighth of the whole wall budget:
			// the instance's conflict rate is so low that solo CDCL cannot
			// possibly finish inside the window, and every further probe
			// just shrinks what the race and the cubes have left to win in.
			// Escalate now, while most of the window remains.
			s.Metrics.Add("portfolio.probe.slow", 1)
			slowProbe = true
			break
		}
		if s.raceGateOpen() {
			break
		}
		s.Metrics.Add("portfolio.probe.extend", 1)
	}

	// Stage 2: portfolio race, with half of what's left reserved for the
	// cube stage whenever that stage might still run.
	if !skipRace {
		raceBudget := int64(0)
		if user > 0 {
			raceBudget = user - spent
			if raceBudget <= 0 {
				return sat.Unknown, primary
			}
		}
		raceDeadline := primary.Deadline
		if s.cubeEnabled() {
			if raceBudget > 0 {
				raceBudget = (raceBudget + 1) / 2
			}
			if !raceDeadline.IsZero() {
				if half := time.Until(raceDeadline) / 2; half > 0 {
					raceDeadline = time.Now().Add(half)
				}
			}
		}
		st, winner, used, raced := s.raceStage(primary, raceBudget, raceDeadline, assumps...)
		spent += used
		if raced {
			if st != sat.Unknown {
				return st, winner
			}
			if s.pastDeadline() {
				return sat.Unknown, primary
			}
		}
	}

	// Stage 3: cube-and-conquer, gated on the conflict watermark. The
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
			var rem int64
			if user > 0 {
				rem = user - spent
				if rem <= 0 {
					return sat.Unknown, primary
				}
			}
			if st, winner, ran := s.solveCubed(primary, rem, assumps...); ran && st != sat.Unknown {
				return st, winner
			}
		}
	}

	// Fallback: nothing escalated (race starved, cube disabled or not
	// splittable, watermark unmet) — finish solo with what remains.
	if user > 0 {
		rem := user - spent
		if rem <= 0 {
			return sat.Unknown, primary
		}
		primary.ConflictBudget = rem
	} else {
		primary.ConflictBudget = 0
	}
	st := primary.Solve(assumps...)
	primary.ConflictBudget = user
	return st, primary
}

// raceStage races the query across idle worker slots. Returns the
// verdict, the winning solver, the primary's conflict spend during the
// race leg, and whether a race actually ran (false when every slot was
// busy — the caller falls through to the later stages).
func (s *Solver) raceStage(primary *sat.Solver, budget int64, deadline time.Time, assumps ...sat.Lit) (sat.Status, *sat.Solver, int64, bool) {
	pf := s.Portfolio
	lent := 0
	for lent < pf.maxRacers() && pf.TryAcquire() {
		lent++
	}
	if lent == 0 {
		// Every worker is busy: no spare capacity to race with.
		s.Metrics.Add("portfolio.starved", 1)
		return sat.Unknown, primary, 0, false
	}
	s.Stats.Races++
	s.Stats.RaceTokens += int64(lent)

	cancel := &sat.Stop{}
	// With a recorder attached the snapshot must exclude learnt clauses: a
	// racer logs every snapshot clause as a DRAT input axiom, and inputs
	// must be consequences the certificate consumer grants — problem
	// clauses and root units are, arbitrary learnts are not re-derivable
	// from the trace alone.
	nv, cnf := primary.Snapshot(s.Recorder == nil)
	type finished struct {
		st     sat.Status
		solver *sat.Solver
	}
	results := make(chan finished, lent+1)
	for i := 0; i < lent; i++ {
		cfg := racerConfig(i)
		racer := sat.New()
		racer.LBD = cfg.lbd
		racer.PhasePositive = cfg.phasePos
		racer.SeedShuffle = cfg.seed
		racer.RestartBase = cfg.restart
		// Racers deliberately do NOT inprocess: the snapshot already
		// carries the primary's simplification (derived clauses live,
		// subsumed ones dropped), and a racer joins the query late — its
		// edge is a diverse search trajectory, so it must spend its time
		// searching, not re-scanning a large instance it just imported.
		racer.ConflictBudget = budget
		racer.Deadline = deadline
		racer.Cancel = cancel
		if s.Recorder != nil {
			racer.Proof = &sat.ProofLog{}
		}
		for v := 0; v < nv; v++ {
			racer.NewVar()
		}
		for _, cl := range cnf {
			racer.AddClause(cl...)
		}
		for _, a := range assumps {
			racer.AddClause(a)
		}
		go func(r *sat.Solver) { results <- finished{r.Solve(), r} }(racer)
	}
	confBefore, propBefore := primary.Conflicts, primary.Propagations
	userBudget, userDeadline := primary.ConflictBudget, primary.Deadline
	primary.Cancel = cancel
	primary.ConflictBudget = budget
	primary.Deadline = deadline
	go func() { results <- finished{primary.Solve(assumps...), primary} }()

	winSt, winner := sat.Unknown, primary
	all := make([]finished, 0, lent+1)
	for i := 0; i < lent+1; i++ {
		r := <-results
		all = append(all, r)
		if winSt == sat.Unknown && r.st != sat.Unknown {
			winSt, winner = r.st, r.solver
			cancel.Stop()
		}
	}
	for i := 0; i < lent; i++ {
		pf.Release()
	}
	primary.Cancel = nil
	primary.ConflictBudget = userBudget
	primary.Deadline = userDeadline
	// Loser-side accounting: racers whose result was discarded — and the
	// primary's race leg, when a racer beat it — spent CPU the verdict
	// never used. SATConflicts counts only the primary, so without this
	// the phase reports undercount what racing actually cost.
	var wastedC, wastedP int64
	for _, r := range all {
		if r.solver == winner {
			continue
		}
		if r.solver == primary {
			wastedC += primary.Conflicts - confBefore
			wastedP += primary.Propagations - propBefore
		} else {
			wastedC += r.solver.Conflicts
			wastedP += r.solver.Propagations
		}
	}
	s.Stats.RaceWastedConflicts += wastedC
	s.Stats.RaceWastedProps += wastedP
	if winSt != sat.Unknown {
		if winner == primary {
			s.Metrics.Add("portfolio.win.primary", 1)
		} else {
			s.Stats.RaceRacerWins++
		}
	}
	return winSt, winner, primary.Conflicts - confBefore, true
}
