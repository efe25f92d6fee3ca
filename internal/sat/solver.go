// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the style of MiniSat: two-watched-literal propagation, VSIDS
// branching, first-UIP clause learning, and Luby restarts.
//
// The solver is the decision-procedure backend for the bit-blasting SMT
// layer in internal/smt, which in turn discharges the verification
// conditions produced by the KEQ equivalence checker.
package sat

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Lit is a literal: variable index shifted left once, low bit is the sign
// (1 = negated). Variables are numbered from 0.
type Lit int32

// MkLit builds a literal for variable v, negated when neg is true.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the variable index of l.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether l is a negated literal.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// lbool is a variable assignment encoded so that the value of a literal is
// assigns[var] XOR sign-bit — a single branchless operation in the unit
// propagation hot loop (values ≥ 2 mean unassigned).
type lbool uint8

const (
	lTrue  lbool = 0
	lFalse lbool = 1
	lUndef lbool = 2
)

func (b lbool) not() lbool {
	if b >= lUndef {
		return lUndef
	}
	return b ^ 1
}

// Stop is a shared cancellation token. Once it is set, every solver
// sharing it observes the flag at its next search-loop poll (every 256
// conflicts and at restart boundaries) and returns Unknown. A nil *Stop
// is never stopped.
type Stop struct{ flag atomic.Bool }

// Stop requests cancellation.
func (t *Stop) Stop() { t.flag.Store(true) }

// Stopped reports whether cancellation was requested.
func (t *Stop) Stopped() bool { return t != nil && t.flag.Load() }

// Status is the result of a Solve call.
type Status int8

const (
	// Unknown means the solver gave up (budget exhausted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula is unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// ErrBudget is returned by Solve when the conflict or propagation budget is
// exhausted before a verdict was reached.
var ErrBudget = errors.New("sat: budget exhausted")

// watcher is one entry of a literal's watch list: a watched clause and a
// blocker literal whose truth lets propagate skip the clause unread.
type watcher struct {
	c       cref
	blocker Lit
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	ca      clauseArena // every clause's header and literals (see arena.go)
	clauses []cref      // problem clauses, in insertion order
	learnts []cref      // live learnt clauses, in learning order
	watches [][]watcher // indexed by literal

	assigns  []lbool
	level    []int32
	reason   []cref // crefUndef for decisions, assumptions, and units
	trail    []Lit
	trailLim []int32
	qhead    int

	varInc   float64
	order    varHeap // also owns the variable activities
	polarity []bool  // saved phases

	claInc float64

	seen     []byte
	analyzeT []Lit
	addT     []Lit // normalized clause in addClause and addDerived
	probeT   []Lit // inprocessing: probed literals, resolvents
	keptT    []Lit // inprocessing: vivified clause

	// Budgets: 0 means unlimited.
	ConflictBudget int64
	PropBudget     int64
	// Deadline, when non-zero, makes Solve return Unknown once passed.
	// It is polled inside the search loop every 256 conflicts (and at
	// restart boundaries), so a long search segment can overrun the
	// deadline by at most one poll interval — not by a whole Luby
	// restart budget.
	Deadline time.Time
	// Cancel, when non-nil, is a shared cancellation token polled at the
	// same points as Deadline: once stopped, Solve returns Unknown. It
	// lets another goroutine abandon a search, for example when the
	// client that asked for it has gone away.
	Cancel *Stop

	// InprocessMin is the minimum problem-clause count before any
	// inprocessing pass runs (0 = a built-in default, see
	// defaultInprocessMin). Inprocessing — clause subsumption, self-
	// subsuming resolution, and vivification before search and at
	// restart boundaries (see preprocess.go) — is part of every solve
	// above that size. A subsume/vivify scan over a tiny instance
	// costs more than it can possibly save, and most corpus queries are
	// tiny — the threshold keeps them on the plain search path while the
	// pathological instances that motivate inprocessing (thousands of
	// clauses) still get the full treatment. Tests lower it to exercise
	// the passes on small formulas.
	InprocessMin int

	// ReduceInterval is the conflict gap between learnt-clause database
	// reductions (0 = default 2000). The gap grows by 300 per reduction
	// performed. Learnt clauses are managed Glucose-style: each is tagged
	// with its literal block distance (number of distinct decision levels
	// among its literals), clauses touched during conflict analysis are
	// bumped and their LBD refreshed downward, and each reduction keeps
	// the glue set (LBD ≤ 2), binary, and locked clauses. This is what
	// keeps a long-lived incremental instance from drowning in stale
	// learnt clauses over thousands of queries.
	ReduceInterval int64

	// Proof, when non-nil, receives a DRAT-style trace of the run: input
	// clauses, learnt clauses, and database deletions (see proof.go).
	// Nil by default: proof logging is opt-in and costs nothing when off.
	Proof *ProofLog

	// Stats
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Reduces      int64 // LBD database reductions performed
	Removed      int64 // learnt clauses deleted by LBD reductions
	Subsumed     int64 // clauses deleted as subsumed or root-satisfied
	Strengthened int64 // clauses shortened by self-subsuming resolution
	Vivified     int64 // clauses shortened by vivification

	lbdSeen    []int64 // per-level stamp array for computeLBD
	lbdStamp   int64
	nextReduce int64

	// inprocessing state (see preprocess.go)
	inprocRuns    int64
	inprocClauses int
	nextInproc    int64

	model []lbool
	ok    bool

	compactions   int64 // arena compactions performed
	noAutoCompact bool  // tests only: never compact on the wasted-words trigger
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		ca:     newClauseArena(0),
		varInc: 1.0,
		claInc: 1.0,
		ok:     true,
	}
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of problem clauses added.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assigns)
	// Decision levels range 0..NumVars, so lbdSeen needs NumVars+1 slots.
	if len(s.lbdSeen) == 0 {
		s.lbdSeen = append(s.lbdSeen, 0)
	}
	s.lbdSeen = append(s.lbdSeen, 0)
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.order.act = append(s.order.act, 0)
	// Default phase: false (negated).
	s.polarity = append(s.polarity, true)
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

func (s *Solver) valueLit(l Lit) lbool {
	v := s.assigns[l>>1] ^ lbool(l&1)
	if v >= lUndef {
		return lUndef
	}
	return v
}

// AddClause adds a clause over the given literals. It returns false when the
// solver is already in an unsatisfiable state (e.g. after adding conflicting
// unit clauses).
func (s *Solver) AddClause(lits ...Lit) bool {
	return s.addClause(lits, false)
}

// LearnClause adds a clause the caller has derived as a consequence of the
// current clause database — e.g. the negation of a refuted cube during an
// in-place cube-and-conquer conquest. Unlike AddClause it is recorded as a
// learnt step, so the proof checker re-derives it by reverse unit
// propagation instead of granting it as an axiom; the clause then joins
// the database like any other and strengthens every later Solve call.
func (s *Solver) LearnClause(lits ...Lit) bool {
	return s.addClause(lits, true)
}

func (s *Solver) addClause(lits []Lit, learnt bool) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	// Log the clause as given: the proof checker replays the original
	// formula, so normalization below must not be reflected in the trace.
	if learnt {
		s.logLearnt(lits)
	} else {
		s.logInput(lits)
	}
	// Normalize: sort-free dedup, drop false lits, detect tautology/sat.
	out := s.addT[:0]
	for _, l := range lits {
		if l.Var() >= len(s.assigns) {
			panic(fmt.Sprintf("sat: clause mentions unallocated variable %d", l.Var()))
		}
		switch s.valueLit(l) {
		case lTrue:
			return true // clause already satisfied at level 0
		case lFalse:
			continue // drop
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	s.addT = out[:0]
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], crefUndef)
		s.ok = s.propagate() == crefUndef
		return s.ok
	}
	// The stored clause matches the logged input step exactly when
	// normalization dropped nothing (sorted-multiset delete matching makes
	// literal order irrelevant).
	c := s.ca.alloc(out, false, len(out) == len(lits))
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

func (s *Solver) attach(c cref) {
	lits := s.ca.lits(c)
	l0, l1 := lits[0], lits[1]
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{c, l1})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{c, l0})
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	if l.Neg() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; returns the conflicting clause or
// crefUndef.
func (s *Solver) propagate() cref {
	// Propagation allocates no clause, so the arena cannot move here.
	mem := s.ca.mem
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		ws := s.watches[p]
		notP := p.Not()
		j := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			c := w.c
			h := uint32(mem[c])
			// Deleted clauses must be dropped before the blocker shortcut:
			// a deleted clause whose blocker happens to be true would
			// otherwise keep its watcher forever, defeating lazy
			// detachment and bloating hot watch lists.
			if h&hdrDeleted != 0 {
				continue
			}
			if s.valueLit(w.blocker) == lTrue {
				ws[j] = w
				j++
				continue
			}
			lits := mem[c+1 : c+1+cref(h>>hdrFlagBits)]
			// Make sure the false literal is lits[1].
			if lits[0] == notP {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.valueLit(first) == lTrue {
				ws[j] = watcher{c, first}
				j++
				continue
			}
			// Look for a new watch.
			for k := 2; k < len(lits); k++ {
				if s.valueLit(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nw := lits[1].Not()
					s.watches[nw] = append(s.watches[nw], watcher{c, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{c, first}
			j++
			if s.valueLit(first) == lFalse {
				// Conflict: copy back remaining watchers.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = ws[:j]
	}
	return crefUndef
}

// analyze produces a learnt clause (first UIP) and a backtrack level. The
// clause is a view of a solver-owned buffer, valid until the next call.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := s.analyzeT[:0]
	learnt = append(learnt, 0) // placeholder for the asserting literal
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		if s.ca.learnt(confl) {
			// Reward clauses that keep participating in conflicts and let
			// their LBD improve: a clause that has become glue is worth
			// keeping regardless of the level pattern it was learnt at.
			s.bumpClause(confl)
			if nl := s.computeLBD(s.ca.lits(confl)); nl < s.ca.lbd(confl) {
				s.ca.setLBD(confl, nl)
			}
		}
		for _, q := range s.ca.lits(confl) {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.bumpVar(v)
				s.seen[v] = 1
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Select next literal to look at.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = 0
		pathC--
		if pathC == 0 {
			break
		}
	}
	learnt[0] = p.Not()

	// Conflict-clause minimization (local: remove literals implied by
	// others). Clear seen flags of removed literals as we go; the kept ones
	// are cleared below.
	out := learnt[:1]
	for _, l := range learnt[1:] {
		if s.redundant(l) {
			s.seen[l.Var()] = 0
		} else {
			out = append(out, l)
		}
	}
	learnt = out

	// Find backtrack level.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	for _, l := range learnt {
		s.seen[l.Var()] = 0
	}
	s.analyzeT = learnt[:0]
	return learnt, btLevel
}

// redundant reports whether literal l in a learnt clause is implied by the
// remaining literals through its reason clause (cheap one-level check).
func (s *Solver) redundant(l Lit) bool {
	r := s.reason[l.Var()]
	if r == crefUndef {
		return false
	}
	for _, q := range s.ca.lits(r) {
		if q.Var() == l.Var() {
			continue
		}
		if s.seen[q.Var()] == 0 && s.level[q.Var()] > 0 {
			return false
		}
	}
	return true
}

func (s *Solver) bumpVar(v int) {
	act := s.order.act
	act[v] += s.varInc
	if act[v] > 1e100 {
		for i := range act {
			act[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c cref) {
	a := s.ca.act(c) + s.claInc
	s.ca.setAct(c, a)
	if a > 1e20 {
		for _, cl := range s.learnts {
			s.ca.setAct(cl, s.ca.act(cl)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	lim := int(s.trailLim[level])
	for i := len(s.trail) - 1; i >= lim; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.assigns[v] == lFalse
		s.assigns[v] = lUndef
		s.reason[v] = crefUndef
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchLit() Lit {
	for {
		v, ok := s.order.pop()
		if !ok {
			return -1
		}
		if s.assigns[v] == lUndef {
			s.Decisions++
			return MkLit(v, s.polarity[v])
		}
	}
}

// computeLBD returns the literal block distance of lits: the number of
// distinct non-root decision levels among them. Must be called while the
// literals' levels are current (before backtracking past them).
func (s *Solver) computeLBD(lits []Lit) int32 {
	s.lbdStamp++
	var n int32
	for _, l := range lits {
		lv := s.level[l.Var()]
		if lv == 0 {
			continue
		}
		if s.lbdSeen[lv] != s.lbdStamp {
			s.lbdSeen[lv] = s.lbdStamp
			n++
		}
	}
	return n
}

// reduceDB is the learnt-clause database reduction: glue clauses (LBD ≤ 2),
// binary clauses, and locked clauses are kept unconditionally; of the
// rest, the worse half — highest LBD first, lowest activity as tiebreak —
// is deleted. Deleted clauses are detached lazily by propagate.
func (s *Solver) reduceDB() {
	var removable []cref
	for _, c := range s.learnts {
		if s.ca.size(c) <= 2 || s.ca.lbd(c) <= 2 || s.locked(c) {
			continue
		}
		removable = append(removable, c)
	}
	if len(removable) < 2 {
		return
	}
	sort.Slice(removable, func(i, j int) bool {
		ci, cj := removable[i], removable[j]
		if li, lj := s.ca.lbd(ci), s.ca.lbd(cj); li != lj {
			return li > lj
		}
		return s.ca.act(ci) < s.ca.act(cj)
	})
	for _, c := range removable[:len(removable)/2] {
		s.ca.free(c)
		s.Removed++
		s.logDelete(s.ca.lits(c))
	}
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if !s.ca.deleted(c) {
			kept = append(kept, c)
		}
	}
	s.learnts = kept
	s.Reduces++
}

// maybeReduceDB runs the periodic reduction schedule; called at
// restart boundaries (decision level 0), mirroring Glucose: reduce every
// ReduceInterval conflicts, with the interval stretching by 300 per
// reduction so a long-lived incremental instance settles into a steady
// clause budget instead of thrashing.
func (s *Solver) maybeReduceDB() {
	interval := s.ReduceInterval
	if interval <= 0 {
		interval = 2000
	}
	if s.nextReduce == 0 {
		s.nextReduce = interval
	}
	if s.Conflicts >= s.nextReduce {
		s.reduceDB()
		s.nextReduce = s.Conflicts + interval + 300*s.Reduces
	}
}

func (s *Solver) locked(c cref) bool {
	l := s.ca.lits(c)[0]
	return s.reason[l.Var()] == c && s.valueLit(l) == lTrue
}

// restartBase is the Luby restart unit in conflicts.
const restartBase = 100

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<k)-1 {
			return int64(1) << (k - 1)
		}
		if i < (int64(1)<<k)-1 {
			return luby(i - (int64(1) << (k - 1)) + 1)
		}
	}
}

// Solve determines satisfiability under the given assumption literals.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if !s.ok {
		return Unsat
	}
	s.model = nil
	defer s.cancelUntil(0)

	if s.inprocessDue() {
		if !s.inprocess(true) {
			return Unsat
		}
	}
	s.maybeCompact()
	if s.nextInproc == 0 {
		// No pass has run yet (instance below the size threshold): earn
		// some conflicts before the first restart-boundary pass instead
		// of firing immediately.
		s.nextInproc = s.Conflicts + 4000
	}

	restartIdx := int64(1)
	conflictsAtStart := s.Conflicts
	// Like ConflictBudget, PropBudget bounds one Solve call, not the
	// instance lifetime: a long-lived incremental instance issuing many
	// cheap queries must not exhaust it cumulatively.
	propsAtStart := s.Propagations
	for {
		budget := luby(restartIdx) * restartBase
		restartIdx++
		st := s.search(budget, assumptions)
		if st == Sat {
			s.model = make([]lbool, len(s.assigns))
			copy(s.model, s.assigns)
			return Sat
		}
		if st == Unsat {
			return Unsat
		}
		// Restart or budget exhausted?
		if s.ConflictBudget > 0 && s.Conflicts-conflictsAtStart >= s.ConflictBudget {
			return Unknown
		}
		if s.PropBudget > 0 && s.Propagations-propsAtStart >= s.PropBudget {
			return Unknown
		}
		if !s.Deadline.IsZero() && time.Now().After(s.Deadline) {
			return Unknown
		}
		if s.Cancel.Stopped() {
			return Unknown
		}
		s.Restarts++
		s.cancelUntil(0)
		s.maybeReduceDB()
		if s.Conflicts >= s.nextInproc && len(s.clauses) >= s.inprocMin() {
			if !s.inprocess(false) {
				return Unsat
			}
		}
		s.maybeCompact()
	}
}

// search runs CDCL until a verdict, a restart budget expiry (returns
// Unknown), or conflict exhaustion.
func (s *Solver) search(conflBudget int64, assumptions []Lit) Status {
	var conflicts int64
	for {
		confl := s.propagate()
		if confl != crefUndef {
			s.Conflicts++
			conflicts++
			// Poll the deadline and the cancellation token inside the
			// search, not only at restart boundaries: restart budgets grow
			// with the Luby sequence, so one long segment could otherwise
			// overrun the per-function budget without bound. Solve
			// re-checks both when we return Unknown and converts them into
			// the final verdict.
			if s.Conflicts&255 == 0 {
				if !s.Deadline.IsZero() && time.Now().After(s.Deadline) {
					return Unknown
				}
				if s.Cancel.Stopped() {
					return Unknown
				}
			}
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.logLearnt(learnt)
			// Levels are only valid before backtracking.
			lbd := s.computeLBD(learnt)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], crefUndef)
			} else {
				c := s.ca.alloc(learnt, true, true)
				s.ca.setLBD(c, lbd)
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.bumpClause(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			continue
		}
		if conflicts >= conflBudget {
			return Unknown
		}
		// Establish pending assumptions one level at a time, propagating
		// each before the next (the outer loop runs propagate first).
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.valueLit(a) {
			case lTrue:
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
			case lFalse:
				return Unsat
			default:
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
				s.uncheckedEnqueue(a, crefUndef)
			}
			continue
		}
		l := s.pickBranchLit()
		if l == -1 {
			return Sat
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.uncheckedEnqueue(l, crefUndef)
	}
}

// Value returns the model value of variable v after a Sat verdict: true,
// false. Calling it without a model panics.
func (s *Solver) Value(v int) bool {
	if s.model == nil {
		panic("sat: Value called without a model")
	}
	return s.model[v] == lTrue
}

// varHeap is a max-heap over variable activities.
type varHeap struct {
	act     []float64 // variable activities, indexed by variable
	heap    []int32
	indices []int32 // var -> heap position+1, 0 = absent
}

func (h *varHeap) less(i, j int) bool {
	return h.act[h.heap[i]] > h.act[h.heap[j]]
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.indices[h.heap[i]] = int32(i + 1)
	h.indices[h.heap[j]] = int32(j + 1)
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.heap) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.heap) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *varHeap) push(v int) {
	for v >= len(h.indices) {
		h.indices = append(h.indices, 0)
	}
	if h.indices[v] != 0 {
		return
	}
	h.heap = append(h.heap, int32(v))
	h.indices[v] = int32(len(h.heap))
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pushIfAbsent(v int) { h.push(v) }

func (h *varHeap) pop() (int, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.indices[h.heap[0]] = 1
	h.heap = h.heap[:last]
	h.indices[v] = 0
	if len(h.heap) > 0 {
		h.down(0)
	}
	return int(v), true
}

func (h *varHeap) update(v int) {
	if v < len(h.indices) && h.indices[v] != 0 {
		h.up(int(h.indices[v]) - 1)
	}
}
