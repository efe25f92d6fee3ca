package smt

import (
	"repro/internal/proof"
	"repro/internal/sat"
)

// This file is the glue between the solver and the certificate recorder:
// every decided query (and only decided queries — budget and deadline
// errors emit nothing) produces exactly one proof.QueryCert, and every
// SAT instance that runs with a recorder attached streams its clause
// trace into a proof.Session.

// litDimacs converts a solver literal to DIMACS encoding (1-based
// variable, negative when negated).
func litDimacs(l sat.Lit) int {
	v := l.Var() + 1
	if l.Neg() {
		return -v
	}
	return v
}

// flushProof converts the proof-log steps at index from and later into
// session steps, returning the new watermark. Literal buffers are reused
// across steps; Session.AddStep streams each step straight to disk. The
// flushed prefix is trimmed from the log so a long incremental session
// holds only its unflushed tail in memory. ProofBytes is NOT estimated
// here: it counts bytes actually written to disk, accounted by the
// artifact writers.
func (s *Solver) flushProof(log *sat.ProofLog, from int, sess *proof.Session) int {
	var dim []int32
	for i := from; i < log.Len(); i++ {
		op, lits := log.Step(i)
		dim = dim[:0]
		for _, l := range lits {
			v := int32(l.Var()) + 1
			if l.Neg() {
				v = -v
			}
			dim = append(dim, v)
		}
		sess.AddStep(op, dim)
	}
	n := log.Len()
	log.Trim(n)
	return n
}

// hookVars returns a blaster varHook that records the CNF variables
// backing each free term variable into sess.
func (s *Solver) hookVars(sess *proof.Session) func(t *Term, lits []sat.Lit) {
	return func(t *Term, lits []sat.Lit) {
		bits := make([]int, len(lits))
		for i, l := range lits {
			bits[i] = litDimacs(l)
		}
		sort := "bool"
		if t.Kind == KVarBV {
			sort = "bv"
		}
		sess.MapVar(t.Name, sort, bits)
	}
}

func (s *Solver) recordTrivial(f *Term, result string) {
	if s.Recorder == nil {
		return
	}
	s.Recorder.RecordTrivial(f, result, "")
	s.lastCert = "trivial"
	s.Stats.Certificates++
}

func (s *Solver) recordSimplified(f *Term, result string, key string) {
	if s.Recorder == nil {
		return
	}
	s.Recorder.RecordSimplified(f, result, key)
	s.lastCert = "simplified"
	s.Stats.Certificates++
}

func (s *Solver) recordRef(key string, result string) {
	if s.Recorder == nil {
		return
	}
	s.Recorder.RecordRef(key, result)
	s.lastCert = "ref"
	s.Stats.Certificates++
}

func (s *Solver) recordModel(f *Term, m *Assign, key string) {
	if s.Recorder == nil {
		return
	}
	s.Recorder.RecordModel(f, proof.ModelFromAssign(m), key)
	s.lastCert = "model"
	s.Stats.Certificates++
}

// recordUnsat flushes the pending trace steps and records the Unsat
// certificate at the resulting position. final is the RUP obligation in
// DIMACS encoding: nil for a global refutation (empty clause), or the
// negated activation assumption of an incremental query.
func (s *Solver) recordUnsat(log *sat.ProofLog, from int, sess *proof.Session, final []int, key string) int {
	if s.Recorder == nil {
		return from
	}
	from = s.flushProof(log, from, sess)
	s.Recorder.RecordUnsat(sess, sess.Len(), final, key)
	s.lastCert = "drat"
	s.Stats.Certificates++
	return from
}
