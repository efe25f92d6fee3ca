package smt

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/proof"
	"repro/internal/sat"
	"repro/internal/telemetry"
)

// Result is the outcome of a satisfiability or validity query.
type Result int8

// Query outcomes.
const (
	// ResultUnknown means the query could not be decided within budget.
	ResultUnknown Result = iota
	// ResultSat / proof failed with a counterexample model.
	ResultSat
	// ResultUnsat / proof succeeded.
	ResultUnsat
)

func (r Result) String() string {
	switch r {
	case ResultSat:
		return "sat"
	case ResultUnsat:
		return "unsat"
	}
	return "unknown"
}

// Solver decides QF_ABV formulas built in a Context. The zero value is not
// usable; use NewSolver.
type Solver struct {
	ctx *Context

	// ConflictBudget bounds CDCL conflicts per query (0 = unlimited).
	ConflictBudget int64
	// Deadline, when non-zero, makes queries return ErrDeadline once passed.
	Deadline time.Time
	// Budget is the wall-clock allowance Deadline was derived from. The
	// adaptive escalation ladder uses it to gate portfolio races on the
	// remaining-deadline fraction: while more than half the budget is
	// left the primary keeps probing solo with doubled budgets, so races
	// fire only for queries that are genuinely running out of time. Zero
	// (or a zero Deadline) leaves races ungated, the pre-adaptive
	// behavior.
	Budget time.Duration
	// DisableCube turns off the cube-and-conquer escalation tier above
	// portfolio racing (ablation; see cube.go and sat.BuildCubes).
	DisableCube bool
	// Incremental keeps one SAT instance, bit-blaster, and array reducer
	// alive across queries: shared subterms are encoded once and learned
	// clauses carry over, the incremental solving the paper's §5.1 names
	// as the missing piece of K's Z3 integration. Each query is solved
	// under an activation assumption, so queries do not pollute each other.
	// The instance lives until ResetIncremental; the checker resets it at
	// every sync point, whose queries share no variable with another
	// point's.
	Incremental bool
	// Cache, when non-nil, is consulted before solving and updated after:
	// queries are keyed by their alpha-invariant CanonKey, so structurally
	// identical obligations — from another function, another worker, or an
	// earlier query of this solver — are answered without touching the SAT
	// layer. A Sat hit returns a nil model (the cache stores verdicts
	// only); callers that need counterexample models must run uncached.
	Cache *Cache
	// DisableClauseDB turns off the LBD-based learned-clause database
	// reduction in the underlying SAT instances, reverting to the legacy
	// activity-threshold policy (ablation; see sat.Solver.LBD).
	DisableClauseDB bool
	// Inprocess enables SatELite-style inprocessing in the SAT instances
	// (subsumption, self-subsumption, vivification, and — for one-shot
	// instances — bounded variable elimination). Certification is
	// preserved: every rewrite is logged into the DRAT trace, and the one
	// non-RUP rewrite is auto-disabled while a Recorder is attached.
	Inprocess bool
	// Portfolio, when non-nil, races queries that outlive the probe
	// budget across idle worker slots with diversified configurations;
	// the first decision cancels the rest. See portfolio.go.
	Portfolio *Portfolio
	// Recorder, when non-nil, makes every decided query emit a proof
	// certificate: Unsat verdicts stream their SAT clause trace into a
	// DRAT session, Sat verdicts record the extracted model against the
	// original term, and cache hits record a reference to the canonical
	// key they resolved to. Off by default; see internal/proof.
	Recorder *proof.Recorder
	// Tracer, when non-nil, records one span per CheckSat query with its
	// result, conflict delta, cache-hit and model-reuse flags, and
	// certificate kind. Nil (the default) costs one nil check per query.
	Tracer *telemetry.Tracer
	// TraceParent is the span query spans nest under; the checker points
	// it at the sync-point or pair span currently being discharged.
	TraceParent telemetry.SpanID
	// Metrics, when non-nil, receives a query-latency observation
	// ("smt.query") and per-result counters for every CheckSat call.
	Metrics *telemetry.Metrics
	// Scratch, when non-nil, supplies reusable per-worker slabs for the
	// bit-blaster's literal vectors. The harness resets it between
	// functions; see Scratch for the lifetime contract.
	Scratch *Scratch

	Stats Stats

	incSAT     *sat.Solver
	incBlaster *blaster
	incReducer *arrayReducer
	incSession *proof.Session
	incFlushed int
	// queryVars is the variable count of the SAT instance the current
	// query was solved on (0 when it never reached the SAT layer),
	// surfaced as the span attribute sat_vars.
	queryVars int
	canonMemo map[*Term]CanonKey
	// models holds the models of the latest keptModels solved Sat
	// queries, newest last; see reuseModel.
	models []*Assign
	// lastCert is the kind of the most recently recorded certificate
	// (trivial/simplified/ref/model/drat), surfaced as a span attribute.
	lastCert string
}

// keptModels is how many recent Sat models a solver tries before solving.
// Consecutive path conditions extend one another, so the latest model
// answers most Sat queries; on the Figure 6 corpus the hits at distance
// 1-4 are 3,962 / 21 / 149 / 10 and few lie beyond (DESIGN.md §14).
const keptModels = 4

// ErrDeadline is returned when the Solver's deadline has passed.
var ErrDeadline = errors.New("smt: deadline exceeded")

// ErrBudget is returned when a query exhausts its conflict budget.
var ErrBudget = errors.New("smt: solver budget exhausted")

// NewSolver returns a Solver for terms of ctx.
func NewSolver(ctx *Context) *Solver {
	return &Solver{ctx: ctx}
}

// Context returns the term context the solver operates on.
func (s *Solver) Context() *Context { return s.ctx }

// ResetIncremental drops the incremental SAT instance, its bit-blaster,
// array reducer and proof session, so the next incremental query builds
// a fresh instance in a fresh session. Call it where later queries share
// no variable with earlier ones: the old encodings could only slow them
// down. Solver-wide state survives: the kept Sat models, the canonical
// key memo, the VC cache and Stats.
func (s *Solver) ResetIncremental() {
	s.incSAT, s.incBlaster, s.incReducer, s.incSession = nil, nil, nil, nil
	s.incFlushed = 0
}

// CheckSat decides satisfiability of the Bool term f. On ResultSat the
// returned Assign is a satisfying model for the free variables of f. It
// may assign other variables too, and the solver keeps it to try on
// later queries, so callers must not modify it. A kept model answers a
// later query when the query evaluates to true under it; a variable the
// model does not assign reads as zero (false for a Bool, zero bytes for
// a memory), the rule proofcheck applies to model certificates too. So
// a model found before ResetIncremental, or for a shorter path
// condition, can still answer a query over variables it never saw.
func (s *Solver) CheckSat(f *Term) (res Result, model *Assign, err error) {
	defer func() {
		if p := recover(); p != nil {
			if p == ErrNodeBudget {
				res, model, err = ResultUnknown, nil, ErrNodeBudget
				return
			}
			panic(p)
		}
	}()
	start := time.Now()
	defer func() { s.Stats.SolveDuration += time.Since(start) }()
	s.Stats.Queries++
	if s.Tracer != nil || s.Metrics != nil {
		before := s.Stats
		s.queryVars = 0
		sp := s.Tracer.Start(s.TraceParent, "smt.query")
		defer func() { s.finishQuery(sp, start, before, res) }()
	}

	if f.SortKind() != SortBool {
		return ResultUnknown, nil, fmt.Errorf("smt: CheckSat of non-Bool term")
	}
	// Fast path: construction-time simplification may already decide it.
	if f.IsTrue() {
		s.Stats.FastQueries++
		s.recordTrivial(f, proof.ResSat)
		return ResultSat, NewAssign(), nil
	}
	if f.IsFalse() {
		s.Stats.FastQueries++
		s.recordTrivial(f, proof.ResUnsat)
		return ResultUnsat, nil, nil
	}

	// The canonical key doubles as cache index and certificate content
	// address, so compute it when either consumer is present.
	var key CanonKey
	var keyHex string
	if s.Cache != nil || s.Recorder != nil {
		key = s.canonKey(f)
		keyHex = key.Hex()
	}
	if s.Cache != nil {
		if r, ok := s.Cache.Get(key); ok {
			s.Stats.CacheHits++
			s.recordRef(keyHex, r.String())
			if r == ResultUnsat {
				return ResultUnsat, nil, nil
			}
			return ResultSat, nil, nil
		}
		s.Stats.CacheMisses++
	}
	// A recent Sat model under which f evaluates to true is a witness:
	// the query is Sat and its certificate is an ordinary model
	// certificate, which the checker re-evaluates like any other.
	if m := s.reuseModel(f); m != nil {
		s.Stats.ModelHits++
		s.recordModel(f, m, keyHex)
		if s.Cache != nil {
			s.Cache.Put(key, ResultSat)
		}
		return ResultSat, m, nil
	}
	// The deadline gates solving only, and deliberately after the fast
	// paths, the cache lookup and model reuse above: an answer already in
	// hand costs no solving, so an expired budget is no reason to
	// withhold it.
	if s.pastDeadline() {
		return ResultUnknown, nil, ErrDeadline
	}
	res, model, err = s.checkSatSolve(f, keyHex)
	if res == ResultSat {
		s.keepModel(model)
	}
	if s.Cache != nil && err == nil {
		s.Cache.Put(key, res) // Put drops anything but Sat/Unsat
	}
	return res, model, err
}

// reuseModel returns the newest kept model under which f evaluates to
// true, or nil. Variables a model does not assign evaluate as zero; an
// evaluation error counts as a miss.
func (s *Solver) reuseModel(f *Term) *Assign {
	for i := len(s.models) - 1; i >= 0; i-- {
		if ok, err := s.models[i].EvalBool(f); err == nil && ok {
			return s.models[i]
		}
	}
	return nil
}

// keepModel records the model of a solved Sat query, dropping the oldest
// once keptModels are kept.
func (s *Solver) keepModel(m *Assign) {
	if len(s.models) == keptModels {
		copy(s.models, s.models[1:])
		s.models = s.models[:keptModels-1]
	}
	s.models = append(s.models, m)
}

// canonKey returns the cache key of f, memoized per term node: hash-consing
// makes repeat queries over the same formula pointer-equal, so each
// distinct formula is serialized at most once per solver.
func (s *Solver) canonKey(f *Term) CanonKey {
	if k, ok := s.canonMemo[f]; ok {
		return k
	}
	k, n := CanonicalHash(f)
	s.Stats.CacheBytes += n
	if s.canonMemo == nil {
		s.canonMemo = make(map[*Term]CanonKey)
	}
	s.canonMemo[f] = k
	return k
}

// checkSatSolve decides f by actually solving (no cache consultation).
func (s *Solver) checkSatSolve(f *Term, keyHex string) (Result, *Assign, error) {
	if s.Incremental {
		return s.checkSatIncremental(f, keyHex)
	}

	red := newArrayReducer(s.ctx)
	g, cons, err := red.reduce(f)
	if err != nil {
		return ResultUnknown, nil, err
	}
	g = s.ctx.AndB(g, cons)
	if g.IsTrue() {
		s.Stats.FastQueries++
		s.recordSimplified(f, proof.ResSat, keyHex)
		return ResultSat, NewAssign(), nil
	}
	if g.IsFalse() {
		s.Stats.FastQueries++
		s.recordSimplified(f, proof.ResUnsat, keyHex)
		return ResultUnsat, nil, nil
	}

	solver := sat.New()
	solver.LBD = !s.DisableClauseDB
	solver.ConflictBudget = s.ConflictBudget
	solver.Deadline = s.Deadline
	// One-shot instance: no assumptions and no later clauses, so full
	// inprocessing including variable elimination is safe.
	solver.Inprocess = s.Inprocess
	solver.InprocessElim = s.Inprocess
	// The proof log must be attached before the blaster exists: its
	// constructor already asserts the constant-true unit clause.
	var sess *proof.Session
	if s.Recorder != nil {
		sess = s.Recorder.NewSession()
		solver.Proof = &sat.ProofLog{}
	}
	b := newBlaster(s.ctx, solver, s.litArena())
	if sess != nil {
		b.varHook = s.hookVars(sess)
	}
	root, err := b.blastBool(g)
	if err != nil {
		return ResultUnknown, nil, err
	}
	solver.AddClause(root)
	s.queryVars = solver.NumVars()
	st, winner := s.solveRaced(solver)
	s.Stats.SATConflicts += solver.Conflicts
	s.Stats.SATDecisions += solver.Decisions
	s.Stats.CNFClauses += int64(solver.NumClauses())
	s.Stats.SubsumedClauses += solver.Subsumed
	s.Stats.StrengthenedClauses += solver.Strengthened
	s.Stats.VivifiedClauses += solver.Vivified
	s.Stats.EliminatedVars += solver.Eliminated
	switch st {
	case sat.Unsat:
		if sess != nil {
			// No assumptions here, so Unsat is a global refutation: the
			// obligation is the empty clause. The winner's trace is the
			// one recorded — a racer's is a complete one-shot refutation
			// of the snapshot CNF over the same variable numbering.
			s.recordUnsat(winner.Proof, 0, sess, nil, keyHex)
		}
		return ResultUnsat, nil, nil
	case sat.Unknown:
		// Unknown conflates budget exhaustion, deadline expiry, and a lost
		// race; attribute the deadline truthfully so tail reports do not
		// blame the conflict budget for wall-clock starvation.
		if s.pastDeadline() {
			return ResultUnknown, nil, ErrDeadline
		}
		return ResultUnknown, nil, ErrBudget
	}
	m := s.extractModel(f, red, b, winner)
	s.recordModel(f, m, keyHex)
	return ResultSat, m, nil
}

// pastDeadline reports whether a non-zero deadline has elapsed.
func (s *Solver) pastDeadline() bool {
	return !s.Deadline.IsZero() && time.Now().After(s.Deadline)
}

// checkSatIncremental solves against the persistent SAT instance under an
// activation assumption.
func (s *Solver) checkSatIncremental(f *Term, keyHex string) (Result, *Assign, error) {
	if s.incSAT == nil {
		s.Stats.Instances++
		s.incSAT = sat.New()
		s.incSAT.LBD = !s.DisableClauseDB
		// The persistent instance sees new clauses and assumption
		// variables on every query, so it gets the implication-only
		// inprocessing rewrites; variable elimination stays off
		// (InprocessElim false) — racers spawned from its snapshots are
		// one-shot and run the full set.
		s.incSAT.Inprocess = s.Inprocess
		if s.Recorder != nil {
			// One session for the instance's lifetime: the trace grows
			// monotonically and each Unsat certificate points at its own
			// position, so the CNF shared across queries is logged once.
			// Attach the proof log before the blaster exists: its
			// constructor already asserts the constant-true unit clause.
			s.incSession = s.Recorder.NewSession()
			s.incSAT.Proof = &sat.ProofLog{}
		}
		s.incBlaster = newBlaster(s.ctx, s.incSAT, s.litArena())
		s.incReducer = newArrayReducer(s.ctx)
		if s.incSession != nil {
			s.incBlaster.varHook = s.hookVars(s.incSession)
		}
	}
	// The persistent instance accumulates counters across queries; charge
	// this query with the deltas only, on every return path (fast-path
	// returns can still have asserted consistency clauses).
	confBefore := s.incSAT.Conflicts
	decBefore := s.incSAT.Decisions
	clausesBefore := int64(s.incSAT.NumClauses())
	subBefore, strBefore := s.incSAT.Subsumed, s.incSAT.Strengthened
	vivBefore, elimBefore := s.incSAT.Vivified, s.incSAT.Eliminated
	defer func() {
		s.Stats.SATConflicts += s.incSAT.Conflicts - confBefore
		s.Stats.SATDecisions += s.incSAT.Decisions - decBefore
		s.Stats.CNFClauses += int64(s.incSAT.NumClauses()) - clausesBefore
		s.Stats.SubsumedClauses += s.incSAT.Subsumed - subBefore
		s.Stats.StrengthenedClauses += s.incSAT.Strengthened - strBefore
		s.Stats.VivifiedClauses += s.incSAT.Vivified - vivBefore
		s.Stats.EliminatedVars += s.incSAT.Eliminated - elimBefore
	}()
	g, cons, err := s.incReducer.reduce(f)
	if err != nil {
		return ResultUnknown, nil, err
	}
	// Consistency constraints are theory facts: assert them permanently.
	if !cons.IsTrue() {
		consLit, err := s.incBlaster.blastBool(cons)
		if err != nil {
			return ResultUnknown, nil, err
		}
		s.incSAT.AddClause(consLit)
	}
	if g.IsTrue() {
		s.Stats.FastQueries++
		s.recordSimplified(f, proof.ResSat, keyHex)
		return ResultSat, NewAssign(), nil
	}
	if g.IsFalse() {
		s.Stats.FastQueries++
		s.recordSimplified(f, proof.ResUnsat, keyHex)
		return ResultUnsat, nil, nil
	}
	root, err := s.incBlaster.blastBool(g)
	if err != nil {
		return ResultUnknown, nil, err
	}
	s.incSAT.ConflictBudget = s.ConflictBudget
	s.incSAT.Deadline = s.Deadline
	s.queryVars = s.incSAT.NumVars()
	st, winner := s.solveRaced(s.incSAT, root)
	switch st {
	case sat.Unsat:
		if s.incSession != nil {
			if winner == s.incSAT {
				// Under an activation assumption, Unsat means the negated
				// assumption follows by unit propagation — unless the instance
				// was refuted outright, in which case the obligation is the
				// empty clause.
				var final []int
				if s.incSAT.Okay() {
					final = []int{-litDimacs(root)}
				}
				s.incFlushed = s.recordUnsat(s.incSAT.Proof, s.incFlushed, s.incSession, final, keyHex)
			} else {
				// A racer won. Its trace is a self-contained one-shot
				// refutation — snapshot clauses plus the activation unit as
				// inputs, empty clause as the obligation — so it gets its
				// own session; the shared incremental session and its flush
				// watermark stay untouched for the next primary-won query.
				sess := s.Recorder.NewSession()
				s.mapBlasterVars(sess, s.incBlaster)
				s.recordUnsat(winner.Proof, 0, sess, nil, keyHex)
			}
		}
		return ResultUnsat, nil, nil
	case sat.Unknown:
		if s.pastDeadline() {
			return ResultUnknown, nil, ErrDeadline
		}
		return ResultUnknown, nil, ErrBudget
	}
	// The snapshot preserves variable numbering, so the blaster memos
	// decode a racer's model exactly like the primary's.
	m := s.extractModel(f, s.incReducer, s.incBlaster, winner)
	s.recordModel(f, m, keyHex)
	return ResultSat, m, nil
}

// Prove decides validity of the Bool term f (true in all models). On
// failure the returned Assign is a countermodel.
func (s *Solver) Prove(f *Term) (proved bool, counter *Assign, err error) {
	res, model, err := s.CheckSat(s.ctx.Not(f))
	if err != nil {
		return false, nil, err
	}
	switch res {
	case ResultUnsat:
		return true, nil, nil
	case ResultSat:
		return false, model, nil
	}
	return false, nil, ErrBudget
}

// ProveImplies decides validity of premise → conclusion.
func (s *Solver) ProveImplies(premise, conclusion *Term) (bool, *Assign, error) {
	return s.Prove(s.ctx.Implies(premise, conclusion))
}

// extractModel reads variable values out of the SAT model. Memory contents
// are reconstructed best-effort from the Ackermann select variables.
func (s *Solver) extractModel(orig *Term, red *arrayReducer, b *blaster, solver *sat.Solver) *Assign {
	m := NewAssign()
	// Free variables appear in the blaster memos keyed by their var terms.
	for t, lits := range b.bvMemo {
		if t.Kind != KVarBV {
			continue
		}
		var v uint64
		for i, l := range lits {
			bit := solver.Value(l.Var())
			if l.Neg() {
				bit = !bit
			}
			if bit {
				v |= 1 << i
			}
		}
		m.BV[t.Name] = v
	}
	for t, l := range b.boolMemo {
		if t.Kind != KVarBool {
			continue
		}
		bit := solver.Value(l.Var())
		if l.Neg() {
			bit = !bit
		}
		m.Bool[t.Name] = bit
	}
	// Memory: evaluate Ackermann select addresses under the model.
	for base, entries := range red.sel {
		bytes := make(map[uint64]uint8)
		for _, e := range entries {
			addr, err := m.EvalBV(e.addr)
			if err != nil {
				continue
			}
			val, ok := m.BV[e.v.Name]
			if !ok {
				continue
			}
			bytes[addr] = uint8(val)
		}
		m.Mem[base.Name] = bytes
	}
	return m
}
