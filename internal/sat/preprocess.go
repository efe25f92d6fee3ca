package sat

import "time"

// SatELite-style inprocessing (Eén & Biere, SAT 2005): clause subsumption,
// self-subsuming resolution, vivification, and bounded variable
// elimination, run before search and again at restart boundaries. Every
// rewrite is expressed as clause additions and deletions in the DRAT
// trace, and every addition is a resolvent or a probe-derived shortening —
// both RUP against the live clause set at the time it is logged — so an
// inprocessed run certifies exactly like a plain one. The single rewrite
// with no RUP justification, pure-literal elimination, is automatically
// disabled while proof logging is on unless ElimUnchecked is set.
//
// Subsumption, strengthening, and vivification only add implied clauses
// and delete redundant ones, so they are sound for incremental instances.
// Variable elimination rewrites the formula to a merely equisatisfiable
// one: Solve repairs models through the reconstruction stack, but clauses
// added after elimination must not mention eliminated variables (AddClause
// panics) — so elimination is reserved for one-shot instances, with
// assumption variables protected by Freeze.

// Inprocessing bounds. Subsumption scans are capped by subsumer length,
// vivification by clause length and a propagation budget per pass, and
// elimination by per-polarity occurrence counts, parent clause length, and
// zero clause growth (resolvent count must not exceed parent count).
const (
	subsumeMaxLen    = 30
	vivifyMaxLen     = 40
	vivifyPropBudget = 300_000
	elimMaxOcc       = 12
	elimMaxLen       = 20
	// defaultInprocessMin is the instance size below which no pass runs
	// (overridable via Solver.InprocessMin): scans over small instances
	// cost more wall clock than the search time they could save.
	defaultInprocessMin = 2000
)

// inprocMin resolves the effective minimum instance size for
// inprocessing.
func (s *Solver) inprocMin() int {
	if s.InprocessMin > 0 {
		return s.InprocessMin
	}
	return defaultInprocessMin
}

// elimEntry remembers one eliminated variable and the clauses removed on
// its behalf, for model reconstruction.
type elimEntry struct {
	v       int32
	clauses [][]Lit
}

// Freeze marks v as not eliminable by inprocessing. Callers that will use
// v as an assumption, or add clauses over it after Solve, must freeze it
// first.
func (s *Solver) Freeze(v int) {
	for v >= len(s.frozen) {
		s.frozen = append(s.frozen, false)
	}
	s.frozen[v] = true
}

func (s *Solver) isFrozen(v int) bool { return v < len(s.frozen) && s.frozen[v] }

func (s *Solver) isEliminated(v int) bool { return v < len(s.eliminated) && s.eliminated[v] }

// shuffle applies the SeedShuffle diversification: a deterministic
// xorshift stream adds sub-unit activity noise (breaking ties in the
// VSIDS order without overriding real conflict activity) and flips the
// saved phase of a pseudo-random subset of variables.
func (s *Solver) shuffle() {
	s.shuffled = true
	x := s.SeedShuffle
	for v := range s.assigns {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s.order.act[v] += float64(x&0xffff) / (1 << 26)
		if x&0x10000 != 0 {
			s.polarity[v] = !s.polarity[v]
		}
		s.order.update(v)
	}
}

// removeClause marks c deleted — watchers drop lazily in propagate — and
// logs the deletion when the stored literals match a logged step (see
// hdrLogged). Its entry stays in s.clauses, so the problem-clause count
// and the inprocessing schedule that reads it do not move.
func (s *Solver) removeClause(c cref) {
	s.ca.free(c)
	if s.ca.logged(c) {
		s.logDelete(s.ca.lits(c))
	}
}

// addDerived installs a derived problem clause — an elimination resolvent
// or a strengthened/vivified shortening — logging it as a learnt step:
// every derived clause is RUP against the clauses live when it is added.
// Root-falsified literals are dropped first (the shrunken clause is RUP
// whenever the full one is, since the checker holds the same root units);
// a root-satisfied derivation is skipped entirely. Returns the installed
// clause, or crefUndef when the result was satisfied, unit, or empty; a
// unit is enqueued and propagated, and a conflict makes the solver
// unsatisfiable. Installing the clause may move the arena, so callers
// must re-slice any clause literals they hold across the call. Must be
// called at decision level 0.
func (s *Solver) addDerived(lits []Lit) cref {
	out := s.addT[:0]
	for _, l := range lits {
		switch s.valueLit(l) {
		case lTrue:
			return crefUndef
		case lFalse:
			continue
		}
		out = append(out, l)
	}
	s.addT = out[:0]
	s.logLearnt(out)
	switch len(out) {
	case 0:
		s.ok = false
		return crefUndef
	case 1:
		s.uncheckedEnqueue(out[0], crefUndef)
		if s.propagate() != crefUndef {
			s.ok = false
		}
		return crefUndef
	}
	c := s.ca.alloc(out, false, true)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return c
}

// inprocessDue gates the pass that runs at Solve entry: always the first
// time, afterwards only when the problem database grew enough (at least
// 256 clauses and 25%) to make a rescan worthwhile — an incremental
// instance issuing thousands of small queries must not pay a full pass
// per query.
func (s *Solver) inprocessDue() bool {
	if len(s.clauses) < s.inprocMin() {
		return false
	}
	if s.inprocRuns == 0 {
		return true
	}
	grown := len(s.clauses) - s.inprocClauses
	return grown >= 256 && grown*4 >= s.inprocClauses
}

// inprocess runs one simplification round: subsumption and self-
// subsumption always; budget-bounded vivification and — when enabled —
// bounded variable elimination in initial (Solve-entry) rounds only.
// Restart-boundary rounds stay cheap on purpose: a vivification scan
// mid-search spends wall clock a query near its deadline cannot spare,
// while signature-pruned subsumption pays for itself. Returns false when
// the instance became unsatisfiable. Must run at decision level 0.
func (s *Solver) inprocess(initial bool) bool {
	if s.decisionLevel() != 0 || !s.ok {
		return s.ok
	}
	s.subsumePass()
	if s.ok && initial && !s.inprocStopped() {
		s.vivifyPass()
	}
	if s.ok && initial && s.InprocessElim && !s.inprocStopped() {
		s.elimPass()
	}
	s.inprocRuns++
	s.inprocClauses = len(s.clauses)
	s.nextInproc = s.Conflicts + 4000 + 2000*s.inprocRuns
	return s.ok
}

// inprocStopped polls the external stop conditions — the cancellation
// token and the wall-clock deadline — inside simplification passes. The
// passes run before the search loop's own polling starts, so without this
// a long subsume or vivify scan could overrun a per-query deadline by the
// full pass duration.
func (s *Solver) inprocStopped() bool {
	if s.Cancel.Stopped() {
		return true
	}
	return !s.Deadline.IsZero() && time.Now().After(s.Deadline)
}

// Subsumption relations.
const (
	subNone = iota
	subSubsumes
	subStrengthens
)

// subsumes classifies c against d: subSubsumes when every literal of c
// occurs in d, subStrengthens (returning the pivot literal of c) when all
// but exactly one occur and that one occurs negated — resolving c and d
// on the pivot then yields d minus the negated pivot.
func subsumes(c, d []Lit) (Lit, int) {
	pivot := Lit(-1)
	for _, lc := range c {
		found := false
		for _, ld := range d {
			if ld == lc {
				found = true
				break
			}
			if ld == lc.Not() {
				if pivot != -1 {
					return -1, subNone
				}
				pivot = lc
				found = true
				break
			}
		}
		if !found {
			return -1, subNone
		}
	}
	if pivot != -1 {
		return pivot, subStrengthens
	}
	return -1, subSubsumes
}

// subsumePass deletes root-satisfied and subsumed problem clauses and
// applies self-subsuming resolution. Candidate pairs are pruned by
// per-variable occurrence lists and 64-bit variable signatures, MiniSat/
// SatELite style: a clause can only subsume along its least-occurring
// variable, and sig(c) ⊄ sig(d) rules a pair out in one AND.
func (s *Solver) subsumePass() {
	n := len(s.clauses)
	occ := make([][]int32, len(s.assigns))
	sig := make([]uint64, n)
scan:
	for i := 0; i < n; i++ {
		c := s.clauses[i]
		if s.ca.deleted(c) {
			continue
		}
		var g uint64
		for _, l := range s.ca.lits(c) {
			if s.valueLit(l) == lTrue {
				// Satisfied at root: permanently redundant (root
				// assignments never backtrack), so drop it now.
				s.removeClause(c)
				s.Subsumed++
				continue scan
			}
			g |= 1 << (uint(l.Var()) & 63)
			occ[l.Var()] = append(occ[l.Var()], int32(i))
		}
		sig[i] = g
	}
	for i := 0; i < n && s.ok; i++ {
		if i&63 == 0 && s.inprocStopped() {
			return
		}
		c := s.clauses[i]
		if s.ca.deleted(c) || s.ca.size(c) > subsumeMaxLen {
			continue
		}
		cl := s.ca.lits(c)
		best := cl[0].Var()
		for _, l := range cl[1:] {
			if len(occ[l.Var()]) < len(occ[best]) {
				best = l.Var()
			}
		}
		for _, dj := range occ[best] {
			d := s.clauses[dj]
			if int(dj) == i || s.ca.deleted(d) || s.ca.size(d) < len(cl) || sig[i]&^sig[dj] != 0 {
				continue
			}
			// Re-slice both clauses: a strengthening below may have
			// moved the arena.
			cl = s.ca.lits(c)
			dl := s.ca.lits(d)
			pivot, rel := subsumes(cl, dl)
			switch rel {
			case subSubsumes:
				s.removeClause(d)
				s.Subsumed++
			case subStrengthens:
				// Self-subsuming resolution: the resolvent of c and d on
				// the pivot is d without the negated pivot — a resolvent
				// of two live clauses, hence RUP. Add it before deleting
				// d so the checker verifies it against the right live set.
				lits := s.probeT[:0]
				for _, l := range dl {
					if l != pivot.Not() {
						lits = append(lits, l)
					}
				}
				s.probeT = lits
				s.addDerived(lits)
				s.removeClause(d)
				s.Strengthened++
				if !s.ok {
					return
				}
			}
		}
	}
}

// vivifyPass probes problem clauses (budget-bounded) for shortenings.
func (s *Solver) vivifyPass() {
	n := len(s.clauses)
	start := s.Propagations
	for i := 0; i < n && s.ok; i++ {
		if s.Propagations-start > vivifyPropBudget || s.inprocStopped() {
			break
		}
		c := s.clauses[i]
		if s.ca.deleted(c) || s.ca.size(c) > vivifyMaxLen {
			continue
		}
		s.vivifyClause(c)
	}
}

// vivifyClause asserts the negation of c's literals one decision level at
// a time. Three outcomes shorten the clause: a propagation conflict (the
// prefix alone is contradictory), a literal implied true (the prefix plus
// that literal covers the clause), and a literal implied false (it is
// redundant in c). In each case the shortened clause is RUP: asserting
// its negation replays the probe's propagations against the live set —
// which still includes c itself — to the same contradiction. The clause
// is replaced, never mutated, so the trace sees a checkable add+delete.
func (s *Solver) vivifyClause(c cref) {
	// Probe over a copy: c stays attached, and propagate reorders the
	// literals of clauses it visits (watched-literal swaps) — iterating
	// c's literals in place would skip or repeat literals mid-probe.
	lits := append(s.probeT[:0], s.ca.lits(c)...)
	s.probeT = lits
	kept := s.keptT[:0]
	shrunk := false
probe:
	for idx, l := range lits {
		switch s.valueLit(l) {
		case lTrue:
			if s.level[l.Var()] == 0 {
				// Root-satisfied (by a unit derived earlier in this very
				// pass): permanently redundant.
				s.cancelUntil(0)
				s.removeClause(c)
				s.Subsumed++
				return
			}
			kept = append(kept, l)
			if idx < len(lits)-1 {
				shrunk = true
			}
			break probe
		case lFalse:
			// Root-false or implied false by the probed prefix: redundant
			// in c either way.
			shrunk = true
		default:
			s.trailLim = append(s.trailLim, int32(len(s.trail)))
			s.uncheckedEnqueue(l.Not(), crefUndef)
			kept = append(kept, l)
			if s.propagate() != crefUndef {
				if idx < len(lits)-1 {
					shrunk = true
				}
				break probe
			}
		}
	}
	s.cancelUntil(0)
	s.keptT = kept[:0]
	if !shrunk {
		return
	}
	s.Vivified++
	s.addDerived(kept)
	s.removeClause(c)
}

// elimPass performs bounded variable elimination (the SatELite rewrite):
// an unfrozen, unassigned variable whose resolvent set is no larger than
// the clause set it replaces is resolved away. Resolvents are added (each
// one RUP — its negation makes both parents propagate the pivot in
// opposite polarities) before the parents are deleted, and the parents
// are saved on the reconstruction stack so Sat models extend back to the
// original variable set.
func (s *Solver) elimPass() {
	nv := len(s.assigns)
	for len(s.eliminated) < nv {
		s.eliminated = append(s.eliminated, false)
	}
	occ := make([][]cref, 2*nv)
	for _, c := range s.clauses {
		if s.ca.deleted(c) {
			continue
		}
		for _, l := range s.ca.lits(c) {
			occ[l] = append(occ[l], c)
		}
	}
	gather := func(ws []cref) []cref {
		out := make([]cref, 0, len(ws))
		for _, c := range ws {
			if !s.ca.deleted(c) {
				out = append(out, c)
			}
		}
		return out
	}
	short := func(cs []cref) bool {
		for _, c := range cs {
			if s.ca.size(c) > elimMaxLen {
				return false
			}
		}
		return true
	}
	for v := 0; v < nv && s.ok; v++ {
		if v&63 == 0 && s.inprocStopped() {
			break
		}
		if s.assigns[v] != lUndef || s.eliminated[v] || s.isFrozen(v) {
			continue
		}
		pos := gather(occ[MkLit(v, false)])
		neg := gather(occ[MkLit(v, true)])
		if len(pos) == 0 && len(neg) == 0 {
			continue
		}
		if len(pos) == 0 || len(neg) == 0 {
			// Pure literal: zero resolvents, but the implicit unit that
			// justifies deleting the clauses is satisfiability-preserving,
			// not implied — there is no RUP step for it, so with proof
			// logging on this rewrite needs an explicit opt-in.
			if s.Proof != nil && !s.ElimUnchecked {
				continue
			}
			s.eliminateVar(v, pos, neg, nil, occ)
			continue
		}
		if len(pos) > elimMaxOcc || len(neg) > elimMaxOcc || !short(pos) || !short(neg) {
			continue
		}
		res, ok := s.resolveAll(pos, neg, v, len(pos)+len(neg))
		if !ok {
			continue
		}
		s.eliminateVar(v, pos, neg, res, occ)
	}
}

// eliminateVar performs one elimination: resolvents in, parents out,
// parents saved for reconstruction. New resolvents join the occurrence
// index so later eliminations see them — missing one would silently drop
// a constraint and break soundness.
func (s *Solver) eliminateVar(v int, pos, neg []cref, res [][]Lit, occ [][]cref) {
	saved := make([][]Lit, 0, len(pos)+len(neg))
	for _, c := range pos {
		saved = append(saved, append([]Lit(nil), s.ca.lits(c)...))
	}
	for _, c := range neg {
		saved = append(saved, append([]Lit(nil), s.ca.lits(c)...))
	}
	for _, r := range res {
		c := s.addDerived(r)
		if !s.ok {
			return
		}
		if c != crefUndef {
			for _, l := range s.ca.lits(c) {
				occ[l] = append(occ[l], c)
			}
		}
	}
	for _, c := range pos {
		s.removeClause(c)
	}
	for _, c := range neg {
		s.removeClause(c)
	}
	s.elimStack = append(s.elimStack, elimEntry{v: int32(v), clauses: saved})
	s.eliminated[v] = true
	s.Eliminated++
}

// resolveAll builds the non-tautological resolvents of pos × neg on v,
// failing when they would outnumber maxRes (the growth bound).
func (s *Solver) resolveAll(pos, neg []cref, v int, maxRes int) ([][]Lit, bool) {
	var out [][]Lit
	for _, cp := range pos {
		for _, cn := range neg {
			r, taut := resolve(s.ca.lits(cp), s.ca.lits(cn), v)
			if taut {
				continue
			}
			out = append(out, r)
			if len(out) > maxRes {
				return nil, false
			}
		}
	}
	return out, true
}

// resolve returns the resolvent of p and n on pivot variable v, deduped,
// reporting tautology.
func resolve(p, n []Lit, v int) ([]Lit, bool) {
	out := make([]Lit, 0, len(p)+len(n)-2)
	for _, l := range p {
		if l.Var() != v {
			out = append(out, l)
		}
	}
	for _, l := range n {
		if l.Var() == v {
			continue
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				return nil, true
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	return out, false
}

// reconstructModel extends a satisfying assignment of the post-
// elimination formula to the original variable set: eliminated variables
// are assigned in reverse elimination order so every clause removed on
// their behalf is satisfied (always possible when the resolvents are —
// the standard SatELite reconstruction invariant). Later-eliminated
// variables may appear in earlier entries' saved clauses, so the reverse
// order resolves them first.
func (s *Solver) reconstructModel() {
	for i := len(s.elimStack) - 1; i >= 0; i-- {
		e := s.elimStack[i]
		val := lFalse
		for _, cl := range e.clauses {
			satisfied := false
			var vl Lit = -1
			for _, l := range cl {
				if l.Var() == int(e.v) {
					vl = l
					continue
				}
				m := s.model[l.Var()]
				if m < lUndef && m^lbool(l&1) == lTrue {
					satisfied = true
					break
				}
			}
			if satisfied || vl == -1 {
				continue
			}
			if vl.Neg() {
				val = lFalse
			} else {
				val = lTrue
			}
		}
		s.model[e.v] = val
	}
}

// Snapshot exports the instance's CNF at decision level 0: every root-
// assigned literal as a unit clause, then every live problem clause,
// then the parent clauses of every eliminated variable — those are
// required for model correctness on the importing side, which has no
// reconstruction stack; clauses deleted by subsumption or vivification
// are implied by the live set (every deletion happened while the
// remaining clauses subsumed or covered the deleted one) and are
// excluded, keeping the export lean — and optionally the live learnt
// clauses. Learnt clauses are implied, so including them preserves
// equivalence, but an importer logs everything as input axioms: callers
// recording proofs must exclude them.
func (s *Solver) Snapshot(withLearnts bool) (nvars int, clauses [][]Lit) {
	if s.decisionLevel() != 0 {
		panic("sat: Snapshot above decision level 0")
	}
	out := make([][]Lit, 0, len(s.trail)+len(s.clauses))
	for _, l := range s.trail {
		out = append(out, []Lit{l})
	}
	for _, c := range s.clauses {
		if !s.ca.deleted(c) {
			out = append(out, append([]Lit(nil), s.ca.lits(c)...))
		}
	}
	for _, e := range s.elimStack {
		for _, lits := range e.clauses {
			out = append(out, append([]Lit(nil), lits...))
		}
	}
	if withLearnts {
		for _, c := range s.learnts {
			if !s.ca.deleted(c) {
				out = append(out, append([]Lit(nil), s.ca.lits(c)...))
			}
		}
	}
	return len(s.assigns), out
}
