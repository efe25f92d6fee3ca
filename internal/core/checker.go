package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/proof"
	"repro/internal/smt"
	"repro/internal/telemetry"
)

// CheckStats counts the work done by a validation run.
type CheckStats struct {
	PointsChecked   int
	StatesExplored  int
	Steps           int
	PairQueries     int
	FastPCPairs     int // pairs decided by syntactic path-condition equality
	ConstraintProof int
}

// Options tune the checker. The zero value enables the paper's
// optimizations (positive-form queries and the syntactic path-condition
// fast path); set the Disable fields for ablation studies.
type Options struct {
	// Mode selects cut-bisimulation (Equivalence) or cut-simulation
	// (Refinement: only left states need matching).
	Mode Mode
	// MaxSteps bounds the symbolic steps taken while searching for cut
	// successors of one sync point (0 = default 1<<20). Exceeding it means
	// the sync points do not form a cut — the run fails. Wall-clock
	// pressure is handled by the solver deadline, which the search also
	// honors.
	MaxSteps int
	// DisablePositiveForm reverts the path-condition implication queries
	// to the naive φ1 ∧ ¬φ2 form (paper §3 "Optimizing SMT Queries").
	DisablePositiveForm bool
	// DisablePCFastPath turns off the syntactic path-condition equality
	// shortcut that skips SMT pairing queries.
	DisablePCFastPath bool
	// DisableIncrementalSMT makes every SMT query start from a cold solver
	// (the behavior the paper's §5.1 blames for much of the timeout tail
	// in K's Z3 integration; incremental solving is the default here).
	DisableIncrementalSMT bool
	// DisableVCCache turns off the solver's verification-condition result
	// cache (ablation). By default the solver answers a query that is
	// alpha-equivalent to one it already decided for this function
	// without solving (see smt.Solver.CacheResults).
	DisableVCCache bool
	// Portfolio, when non-nil, runs stuck queries up the probe → cube
	// escalation ladder with its probe budgets (see smt.Portfolio; the
	// zero value takes the defaults). The harness injects one per run.
	Portfolio *smt.Portfolio
	// DisableCube turns off the cube-and-conquer stage of the escalation
	// ladder (ablation — on by default whenever a Portfolio is attached;
	// see smt.Solver.DisableCube).
	DisableCube bool
	// Proof, when non-nil, records a bisimulation witness for the run and
	// is wired into the solver so every query emits a certificate: the
	// sync points of P, each non-exiting point's cut successors with
	// their feasibility queries, and every pairing decision with the
	// query certificates discharging its obligations (see internal/proof).
	Proof *proof.Recorder
	// Trace, when non-nil, receives a span per sync point checked, per
	// cut-successor search, per pairing attempt, and (via the solver) per
	// SMT query. TraceParent is the span the point spans nest under.
	Trace       *telemetry.Tracer
	TraceParent telemetry.SpanID
	// Metrics, when non-nil, receives per-phase latency observations and
	// query-outcome counters. It is also handed to the solver.
	Metrics *telemetry.Metrics
	// Scratch, when non-nil, supplies the per-worker reusable slabs the
	// solver's bit-blaster allocates literal vectors from. The harness
	// resets it between functions (see smt.Scratch).
	Scratch *smt.Scratch
}

// Checker runs the symbolic variant of Algorithm 1 over two language
// semantics. Create one per validation instance with NewChecker; the
// Context and Solver must be shared with the Semantics implementations.
type Checker struct {
	ctx    *smt.Context
	solver *smt.Solver
	left   Semantics
	right  Semantics
	opts   Options
	rec    *proof.Recorder

	// workStack is the cut-successor search's DFS stack, reused across
	// sync points so steady-state exploration allocates nothing for it.
	workStack []State

	Stats CheckStats
}

// NewChecker returns a Checker over the given semantics pair.
func NewChecker(solver *smt.Solver, left, right Semantics, opts Options) *Checker {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 1 << 20
	}
	solver.Incremental = !opts.DisableIncrementalSMT
	solver.CacheResults = !opts.DisableVCCache
	solver.Portfolio = opts.Portfolio
	solver.DisableCube = opts.DisableCube
	solver.Recorder = opts.Proof
	solver.Tracer = opts.Trace
	solver.TraceParent = opts.TraceParent
	solver.Metrics = opts.Metrics
	solver.Scratch = opts.Scratch
	return &Checker{
		ctx:    solver.Context(),
		solver: solver,
		left:   left,
		right:  right,
		opts:   opts,
		rec:    opts.Proof,
	}
}

// Report is the outcome of a Run.
type Report struct {
	Verdict  Verdict
	Mode     Mode
	Failures []Failure
	Stats    CheckStats
}

// Run checks that the synchronization relation P is a cut-bisimulation
// (or cut-simulation in Refinement mode) witnessing the equivalence of the
// two programs. It is the symbolic Algorithm 1 of the paper: for each
// non-exiting point, both sides are executed symbolically to their cut
// successors, and every successor must be covered by a matching pair in P
// (or excused by the undefined-behavior acceptability policy of §4.6).
//
// A returned error means the check could not be completed (solver budget,
// semantics error); a Report with Verdict NotValidated means P failed.
func (ck *Checker) Run(points []*SyncPoint) (*Report, error) {
	rel := NewRelation(points)
	if ck.rec != nil {
		ck.rec.SetMode(ck.opts.Mode.String())
		infos := make([]proof.PointInfo, len(rel.Points))
		for i, p := range rel.Points {
			infos[i] = proof.PointInfo{
				ID:           p.ID,
				Left:         string(p.LocLeft),
				Right:        string(p.LocRight),
				Exiting:      p.Exiting,
				MemEqual:     p.MemEqual,
				NConstraints: len(p.Constraints),
			}
		}
		ck.rec.SetPoints(infos)
	}
	report := &Report{Verdict: Validated, Mode: ck.opts.Mode}
	for _, p := range rel.Points {
		if p.Exiting {
			continue
		}
		start := time.Now()
		sp := ck.opts.Trace.Start(ck.opts.TraceParent, "core.point",
			telemetry.String("point", p.ID))
		saved := ck.solver.TraceParent
		if sp != nil {
			ck.solver.TraceParent = sp.ID()
		}
		// Each point starts from fresh symbolic variables, so its queries
		// share nothing with the previous point's encodings.
		ck.solver.ResetIncremental()
		fails, err := ck.checkPoint(rel, p)
		ck.solver.TraceParent = saved
		if sp != nil {
			sp.SetAttr("failures", len(fails))
			sp.End()
		}
		ck.opts.Metrics.Observe("core.point", time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("core: checking point %s: %w", p.ID, err)
		}
		ck.Stats.PointsChecked++
		if len(fails) > 0 {
			report.Verdict = NotValidated
			report.Failures = append(report.Failures, fails...)
		}
	}
	report.Stats = ck.Stats
	return report, nil
}

// watermark helpers: bracket a group of solver calls to learn which
// certificate IDs they produced (every decided query emits exactly one).
func (ck *Checker) qmark() int {
	if ck.rec == nil {
		return 0
	}
	return ck.rec.NumQueries()
}

func (ck *Checker) qsince(w int) []string {
	if ck.rec == nil {
		return nil
	}
	return ck.rec.QueriesSince(w)
}

// qone returns the single certificate ID recorded since w ("" when
// recording is off or the query was decided without a certificate).
func (ck *Checker) qone(w int) string {
	ids := ck.qsince(w)
	if len(ids) == 1 {
		return ids[0]
	}
	return ""
}

// succsOf converts cut successors into their witness records.
func (ck *Checker) succsOf(states []State, feasQ []string) []proof.SuccState {
	out := make([]proof.SuccState, len(states))
	for i, s := range states {
		out[i] = proof.SuccState{
			Loc:   string(s.Loc()),
			Error: s.ErrorKind(),
			PC:    ck.rec.EncodeTerm(s.PathCond()),
			FeasQ: feasQ[i],
		}
	}
	return out
}

// checkPoint is function check(p1, p2) of Algorithm 1.
func (ck *Checker) checkPoint(rel *Relation, p *SyncPoint) ([]Failure, error) {
	sL, sR, err := ck.instantiate(p)
	if err != nil {
		return nil, err
	}
	n1, feas1, pruned1, err := ck.tracedCutSuccessors("left", ck.left, sL, rel.LeftLocs())
	if err != nil {
		return nil, fmt.Errorf("left side: %w", err)
	}
	n2, feas2, pruned2, err := ck.tracedCutSuccessors("right", ck.right, sR, rel.RightLocs())
	if err != nil {
		return nil, fmt.Errorf("right side: %w", err)
	}

	black1 := make([]bool, len(n1))
	black2 := make([]bool, len(n2))

	// Disjunction of left-side error path conditions: behaviors excused by
	// undefined behavior in the input program (paper §4.6 — KEQ silently
	// degrades to refinement on those paths).
	excuse := ck.ctx.False()
	for _, s := range n1 {
		if IsError(s) {
			excuse = ck.ctx.OrB(excuse, s.PathCond())
		}
	}

	var pairs []proof.PairWitness
	for i := range n1 {
		for j := range n2 {
			ok, pw, err := ck.tryPair(rel, n1, n2, i, j, excuse)
			if err != nil {
				return nil, err
			}
			if ok {
				black1[i] = true
				black2[j] = true
				if ck.rec != nil {
					pairs = append(pairs, pw)
				}
			}
		}
	}
	if ck.rec != nil {
		ck.rec.AddChecked(proof.CheckedPoint{
			Point:       p.ID,
			Left:        ck.succsOf(n1, feas1),
			Right:       ck.succsOf(n2, feas2),
			PrunedLeft:  pruned1,
			PrunedRight: pruned2,
			Pairs:       pairs,
		})
	}

	var fails []Failure
	for i, s := range n1 {
		if !black1[i] {
			fails = append(fails, Failure{
				Point: p.ID, Side: "left", Loc: s.Loc(),
				Reason: "no matching right-side cut successor in P",
			})
		}
	}
	if ck.opts.Mode == Equivalence {
		for j, s := range n2 {
			if !black2[j] {
				fails = append(fails, Failure{
					Point: p.ID, Side: "right", Loc: s.Loc(),
					Reason: "no matching left-side cut successor in P",
				})
			}
		}
	}
	return fails, nil
}

// instantiate builds the pair of start states for p, sharing one fresh
// symbolic variable per constraint and one memory base variable.
func (ck *Checker) instantiate(p *SyncPoint) (State, State, error) {
	presetL := make(map[string]*smt.Term)
	presetR := make(map[string]*smt.Term)
	for i, c := range p.Constraints {
		lConst, rConst := IsConstExpr(c.Left), IsConstExpr(c.Right)
		switch {
		case lConst && rConst:
			return nil, nil, fmt.Errorf("constraint %d of %s relates two constants", i, p.ID)
		case lConst:
			w, err := ck.right.ObservableWidth(p.LocRight, c.Right)
			if err != nil {
				return nil, nil, err
			}
			v, err := ParseConstExpr(c.Left)
			if err != nil {
				return nil, nil, err
			}
			if err := addPreset(presetR, c.Right, ck.ctx.BV(v, w), p.ID); err != nil {
				return nil, nil, err
			}
		case rConst:
			w, err := ck.left.ObservableWidth(p.LocLeft, c.Left)
			if err != nil {
				return nil, nil, err
			}
			v, err := ParseConstExpr(c.Right)
			if err != nil {
				return nil, nil, err
			}
			if err := addPreset(presetL, c.Left, ck.ctx.BV(v, w), p.ID); err != nil {
				return nil, nil, err
			}
		default:
			wL, err := ck.left.ObservableWidth(p.LocLeft, c.Left)
			if err != nil {
				return nil, nil, err
			}
			wR, err := ck.right.ObservableWidth(p.LocRight, c.Right)
			if err != nil {
				return nil, nil, err
			}
			// Differing widths encode the narrow-value-in-wider-register
			// convention (e.g. LLVM i1 values living in 8-bit x86
			// registers): the shared variable has the narrow width and the
			// wide side is preset to its zero-extension.
			narrow := wL
			if wR < narrow {
				narrow = wR
			}
			shared := ck.ctx.VarBV(fmt.Sprintf("sp!%s!%d", p.ID, i), narrow)
			// The same observable may appear in several constraints (e.g.
			// two right registers equal to one left register): reuse the
			// first shared variable for both sides.
			if prev, ok := presetL[c.Left]; ok && prev.Width <= narrow {
				shared = prev
			} else if prev, ok := presetR[c.Right]; ok && prev.Width <= narrow {
				shared = prev
			}
			if _, ok := presetL[c.Left]; !ok {
				presetL[c.Left] = ck.widen(shared, wL)
			}
			if _, ok := presetR[c.Right]; !ok {
				presetR[c.Right] = ck.widen(shared, wR)
			}
		}
	}
	var memT *smt.Term
	if p.MemEqual {
		memT = ck.ctx.VarMem("M!" + p.ID)
	}
	sL, err := ck.left.Instantiate(p.LocLeft, presetL, memT)
	if err != nil {
		return nil, nil, fmt.Errorf("instantiating left at %s: %w", p.LocLeft, err)
	}
	sR, err := ck.right.Instantiate(p.LocRight, presetR, memT)
	if err != nil {
		return nil, nil, fmt.Errorf("instantiating right at %s: %w", p.LocRight, err)
	}
	return sL, sR, nil
}

// widen zero-extends t to width w (identity when widths match).
func (ck *Checker) widen(t *smt.Term, w uint8) *smt.Term {
	if t.Width == w {
		return t
	}
	return ck.ctx.ZExt(t, w)
}

func addPreset(m map[string]*smt.Term, name string, t *smt.Term, pid string) error {
	if old, ok := m[name]; ok && old != t {
		return fmt.Errorf("conflicting constant presets for %s in %s", name, pid)
	}
	m[name] = t
	return nil
}

// tracedCutSuccessors brackets one cut-successor search with a span (the
// solver's per-query spans nest under it) and a latency observation.
func (ck *Checker) tracedCutSuccessors(side string, sem Semantics, s State, cuts map[Location]bool) ([]State, []string, []proof.Pruned, error) {
	start := time.Now()
	sp := ck.opts.Trace.Start(ck.solver.TraceParent, "core.cutsuccessors",
		telemetry.String("side", side))
	saved := ck.solver.TraceParent
	if sp != nil {
		ck.solver.TraceParent = sp.ID()
	}
	states, feasQ, pruned, err := ck.cutSuccessors(sem, s, cuts)
	ck.solver.TraceParent = saved
	if sp != nil {
		sp.SetAttr("succs", len(states))
		sp.SetAttr("pruned", len(pruned))
		sp.End()
	}
	ck.opts.Metrics.Observe("core.cutsuccessors", time.Since(start))
	return states, feasQ, pruned, err
}

// cutSuccessors is function next_i of Algorithm 1: symbolic execution from
// s until every path reaches a cut state (a location in cuts, a final
// state, or an error state). Successors with unsatisfiable path conditions
// are pruned (they denote no concrete states). The second return value
// holds, per returned state, the ID of the certificate of its feasibility
// query; the third lists the pruned cut states with their Unsat query.
func (ck *Checker) cutSuccessors(sem Semantics, s State, cuts map[Location]bool) ([]State, []string, []proof.Pruned, error) {
	work := append(ck.workStack[:0], s)
	defer func() { ck.workStack = work[:0] }()
	first := true
	var ret []State
	var feasQ []string
	var pruned []proof.Pruned
	steps := 0
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		// The start state itself is a cut state; we want its successors,
		// so the first expansion always steps.
		if !first {
			if cur.ErrorKind() != "" || cur.IsFinal() || cuts[cur.Loc()] {
				w := ck.qmark()
				sat, err := ck.pathFeasible(cur)
				if err != nil {
					return nil, nil, nil, err
				}
				if sat {
					ret = append(ret, cur)
					feasQ = append(feasQ, ck.qone(w))
					ck.Stats.StatesExplored++
				} else if ck.rec != nil {
					pruned = append(pruned, proof.Pruned{Loc: string(cur.Loc()), Q: ck.qone(w)})
				}
				continue
			}
		}
		first = false
		steps++
		ck.Stats.Steps++
		if steps > ck.opts.MaxSteps {
			return nil, nil, nil, fmt.Errorf("no cut reached within %d steps from %s (P is not a cut)", ck.opts.MaxSteps, s.Loc())
		}
		if steps%256 == 0 && !ck.solver.Deadline.IsZero() && time.Now().After(ck.solver.Deadline) {
			return nil, nil, nil, fmt.Errorf("searching cut successors of %s: %w", s.Loc(), smt.ErrDeadline)
		}
		succs, err := sem.Step(cur)
		if err != nil {
			return nil, nil, nil, err
		}
		if len(succs) == 0 && !(cur.IsFinal() || cur.ErrorKind() != "") {
			return nil, nil, nil, fmt.Errorf("stuck state at %s", cur.Loc())
		}
		// Quick syntactic pruning: drop branches whose path condition
		// already simplified to false.
		for _, n := range succs {
			if n.PathCond().IsFalse() {
				continue
			}
			work = append(work, n)
		}
	}
	return ret, feasQ, pruned, nil
}

// pathFeasible checks satisfiability of a cut successor's path condition.
func (ck *Checker) pathFeasible(s State) (bool, error) {
	pc := s.PathCond()
	if pc.IsTrue() {
		return true, nil
	}
	if pc.IsFalse() {
		return false, nil
	}
	res, _, err := ck.solver.CheckSat(pc)
	if err != nil {
		return false, err
	}
	return res == smt.ResultSat, nil
}

// tryPair attempts to mark the pair (n1[i], n2[j]) black: either by the
// undefined-behavior acceptability policy, or by finding a sync point in P
// whose constraints are provable once the two path conditions are shown to
// pair up.
func (ck *Checker) tryPair(rel *Relation, n1, n2 []State, i, j int, excuse *smt.Term) (matched bool, _ proof.PairWitness, _ error) {
	if sp := ck.opts.Trace.Start(ck.solver.TraceParent, "core.pair",
		telemetry.Int("l", int64(i)), telemetry.Int("r", int64(j))); sp != nil {
		saved := ck.solver.TraceParent
		ck.solver.TraceParent = sp.ID()
		defer func() {
			ck.solver.TraceParent = saved
			sp.SetAttr("matched", matched)
			sp.End()
		}()
	}
	a, b := n1[i], n2[j]
	ctx := ck.ctx
	pw := proof.PairWitness{L: i, R: j}

	if IsError(a) {
		// A left (input-program) error state is related to any right state
		// whose path overlaps it: undefined behavior in the input excuses
		// all output behavior on those inputs (paper §4.6).
		w := ck.qmark()
		res, _, err := ck.solver.CheckSat(ctx.AndB(a.PathCond(), b.PathCond()))
		if err != nil {
			return false, pw, err
		}
		if res != smt.ResultSat {
			return false, pw, nil
		}
		pw.How = proof.HowExcuse
		pw.PairQs = ck.qsince(w)
		return true, pw, nil
	}
	if IsError(b) {
		// A right error state is acceptable only against a left error of
		// the same kind — and that case is handled above.
		return false, pw, nil
	}

	cands := rel.Candidates(a.Loc(), b.Loc())
	if len(cands) == 0 {
		return false, pw, nil
	}

	ok, fast, pairQs, err := ck.pathsPair(n1, n2, i, j, excuse)
	if err != nil {
		return false, pw, err
	}
	if !ok {
		return false, pw, nil
	}
	pw.How = proof.HowQueries
	if fast {
		pw.How = proof.HowFastPath
	}
	pw.PairQs = pairQs

	premise := ctx.AndB(a.PathCond(), b.PathCond())
	for _, q := range cands {
		oblig, err := ck.obligations(q, a, b)
		if err != nil {
			return false, pw, err
		}
		ck.Stats.ConstraintProof++
		w := ck.qmark()
		proved, _, err := ck.solver.ProveImplies(premise, oblig)
		if err != nil {
			return false, pw, err
		}
		if proved {
			pw.Sync = q.ID
			pw.ObligQ = ck.qone(w)
			return true, pw, nil
		}
	}
	return false, pw, nil
}

// pathsPair decides whether the path conditions of n1[i] and n2[j] denote
// the same inputs (modulo left-side UB excuse): φ1 ⟹ φ2 and φ2 ⟹ φ1∨excuse.
// With the positive-form optimization (paper §3) the negations are replaced
// by the disjunction of the sibling path conditions, exploiting that both
// transition systems are deterministic so sibling conditions partition.
func (ck *Checker) pathsPair(n1, n2 []State, i, j int, excuse *smt.Term) (ok, fast bool, qids []string, err error) {
	ctx := ck.ctx
	pc1, pc2 := n1[i].PathCond(), n2[j].PathCond()

	if !ck.opts.DisablePCFastPath && pc1 == pc2 && excuse.IsFalse() {
		ck.Stats.FastPCPairs++
		return true, true, nil, nil
	}

	var q1, q2 *smt.Term
	if ck.opts.DisablePositiveForm {
		q1 = ctx.AndB(pc1, ctx.Not(pc2))
		q2 = ctx.AndB(pc2, ctx.Not(ctx.OrB(pc1, excuse)))
	} else {
		psi2 := ctx.False()
		for k, s := range n2 {
			if k != j {
				psi2 = ctx.OrB(psi2, s.PathCond())
			}
		}
		psi1 := ctx.False()
		for k, s := range n1 {
			if k != i && !IsError(s) {
				psi1 = ctx.OrB(psi1, s.PathCond())
			}
		}
		q1 = ctx.AndB(pc1, psi2)
		q2 = ctx.AndB(pc2, psi1)
	}

	w := ck.qmark()
	ck.Stats.PairQueries++
	res, _, err := ck.solver.CheckSat(q1)
	if err != nil {
		return false, false, nil, err
	}
	if res != smt.ResultUnsat {
		return false, false, nil, nil
	}
	ck.Stats.PairQueries++
	res, _, err = ck.solver.CheckSat(q2)
	if err != nil {
		return false, false, nil, err
	}
	if res != smt.ResultUnsat {
		return false, false, nil, nil
	}
	return true, false, ck.qsince(w), nil
}

// obligations builds the conjunction of q's equality constraints evaluated
// in states a (left) and b (right), plus memory equality when required.
func (ck *Checker) obligations(q *SyncPoint, a, b State) (*smt.Term, error) {
	ctx := ck.ctx
	oblig := ctx.True()
	for _, c := range q.Constraints {
		var lt, rt *smt.Term
		var err error
		if IsConstExpr(c.Left) {
			rt, err = b.Observable(c.Right)
			if err != nil {
				return nil, err
			}
			v, perr := ParseConstExpr(c.Left)
			if perr != nil {
				return nil, perr
			}
			lt = ctx.BV(v, rt.Width)
		} else if IsConstExpr(c.Right) {
			lt, err = a.Observable(c.Left)
			if err != nil {
				return nil, err
			}
			v, perr := ParseConstExpr(c.Right)
			if perr != nil {
				return nil, perr
			}
			rt = ctx.BV(v, lt.Width)
		} else {
			lt, err = a.Observable(c.Left)
			if err != nil {
				return nil, err
			}
			rt, err = b.Observable(c.Right)
			if err != nil {
				return nil, err
			}
		}
		// Width mismatches follow the zero-extension convention (see
		// instantiate): the narrow value zero-extended must equal the wide
		// register's contents.
		if lt.Width < rt.Width {
			lt = ctx.ZExt(lt, rt.Width)
		} else if rt.Width < lt.Width {
			rt = ctx.ZExt(rt, lt.Width)
		}
		oblig = ctx.AndB(oblig, ctx.Eq(lt, rt))
	}
	if q.MemEqual {
		mA, mB := a.MemTerm(), b.MemTerm()
		if mA == nil || mB == nil {
			return nil, errors.New("sync point requires memory equality but a state has no memory")
		}
		oblig = ctx.AndB(oblig, ctx.Eq(mA, mB))
	}
	return oblig, nil
}
