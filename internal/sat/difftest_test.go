package sat_test

// Differential validation of the CDCL solver against brute-force
// enumeration, with proof logging enabled throughout: every verdict on a
// random small CNF must match exhaustive search, every Sat model must
// evaluate the formula to true, and every Unsat verdict's DRAT trace must
// replay through the independent RUP checker in internal/proof. This is
// the cross-check that the solver and the certificate chain agree on
// formulas where ground truth is computable.

import (
	"math/rand"
	"testing"

	"repro/internal/proof"
	"repro/internal/sat"
)

// dimacs converts a solver literal to its DIMACS encoding.
func dimacs(l sat.Lit) int32 {
	v := int32(l.Var()) + 1
	if l.Neg() {
		return -v
	}
	return v
}

// replayTrace feeds the first n steps of a proof log into a fresh RUP
// checker, failing the test on any step the checker rejects.
func replayTrace(t *testing.T, log *sat.ProofLog, n int) *proof.SessionChecker {
	t.Helper()
	ck := proof.NewSessionChecker()
	for i := 0; i < n; i++ {
		op, lits := log.Step(i)
		d := make([]int32, len(lits))
		for j, l := range lits {
			d[j] = dimacs(l)
		}
		var err error
		switch op {
		case sat.OpInput:
			err = ck.AddInput(d)
		case sat.OpLearn:
			err = ck.AddLearnt(d)
		case sat.OpDelete:
			err = ck.Delete(d)
		default:
			t.Fatalf("step %d: unknown opcode %q", i, op)
		}
		if err != nil {
			t.Fatalf("step %d (op %q): %v", i, op, err)
		}
	}
	return ck
}

// bruteForce reports whether the CNF (DIMACS-style clauses over nvars
// variables) is satisfiable under the extra unit assumptions.
func bruteForce(nvars int, clauses [][]int32, assumptions []int32) bool {
	total := 1 << nvars
next:
	for m := 0; m < total; m++ {
		holds := func(lit int32) bool {
			v := lit
			if v < 0 {
				v = -v
			}
			bit := m>>(v-1)&1 == 1
			return bit == (lit > 0)
		}
		for _, a := range assumptions {
			if !holds(a) {
				continue next
			}
		}
		for _, cl := range clauses {
			sat := false
			for _, lit := range cl {
				if holds(lit) {
					sat = true
					break
				}
			}
			if !sat {
				continue next
			}
		}
		return true
	}
	return false
}

// randomCNF generates a small random CNF with distinct variables per
// clause (no tautologies, so brute force and the solver see the same
// problem shape the bit-blaster produces).
func randomCNF(rng *rand.Rand, nvars int) [][]int32 {
	nclauses := 1 + rng.Intn(4*nvars)
	clauses := make([][]int32, nclauses)
	for i := range clauses {
		width := 1 + rng.Intn(3)
		if width > nvars {
			width = nvars
		}
		perm := rng.Perm(nvars)[:width]
		cl := make([]int32, width)
		for j, v := range perm {
			cl[j] = int32(v + 1)
			if rng.Intn(2) == 1 {
				cl[j] = -cl[j]
			}
		}
		clauses[i] = cl
	}
	return clauses
}

// newLoggedSolver builds a solver over the DIMACS clauses with proof
// logging attached from the start.
func newLoggedSolver(nvars int, clauses [][]int32) *sat.Solver {
	s := sat.New()
	s.Proof = &sat.ProofLog{}
	for i := 0; i < nvars; i++ {
		s.NewVar()
	}
	for _, cl := range clauses {
		lits := make([]sat.Lit, len(cl))
		for j, d := range cl {
			v := d
			if v < 0 {
				v = -v
			}
			lits[j] = sat.MkLit(int(v-1), d < 0)
		}
		s.AddClause(lits...)
	}
	return s
}

// TestDifferentialRandomCNF cross-checks several hundred seeded random
// CNFs: CDCL verdict vs brute force, Sat models re-evaluated, Unsat DRAT
// traces RUP-verified end to end (global refutation: the empty clause
// must be RUP at the end of the trace).
func TestDifferentialRandomCNF(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED))
	for iter := 0; iter < 400; iter++ {
		nvars := 3 + rng.Intn(6)
		clauses := randomCNF(rng, nvars)
		s := newLoggedSolver(nvars, clauses)
		got := s.Solve()
		want := bruteForce(nvars, clauses, nil)
		if (got == sat.Sat) != want {
			t.Fatalf("iter %d: solver says %v, brute force says sat=%v\ncnf: %v",
				iter, got, want, clauses)
		}
		if got == sat.Sat {
			for _, cl := range clauses {
				ok := false
				for _, d := range cl {
					v := d
					if v < 0 {
						v = -v
					}
					if s.Value(int(v-1)) == (d > 0) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: model does not satisfy clause %v", iter, cl)
				}
			}
			continue
		}
		ck := replayTrace(t, s.Proof, s.Proof.Len())
		if err := ck.CheckFinal(nil); err != nil {
			t.Fatalf("iter %d: empty clause not RUP after full trace: %v\ncnf: %v",
				iter, err, clauses)
		}
	}
}

// TestDifferentialIncremental exercises the incremental pattern the SMT
// layer uses — one long-lived solver, one assumption literal per query —
// and checks each Unsat verdict's certificate semantics: while the solver
// is still Okay, the negated-assumption clause must be RUP at the
// verdict's trace position; after a global refutation, the empty clause.
func TestDifferentialIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(0xCAFE))
	for iter := 0; iter < 60; iter++ {
		nvars := 4 + rng.Intn(5)
		clauses := randomCNF(rng, nvars)
		s := newLoggedSolver(nvars, clauses)
		type obligation struct {
			pos   int
			final []int32
		}
		var obligations []obligation
		for q := 0; q < 8; q++ {
			v := rng.Intn(nvars)
			root := sat.MkLit(v, rng.Intn(2) == 1)
			got := s.Solve(root)
			want := bruteForce(nvars, clauses, []int32{dimacs(root)})
			if (got == sat.Sat) != want {
				t.Fatalf("iter %d query %d: solver says %v under %v, brute force says sat=%v",
					iter, q, got, root, want)
			}
			if got != sat.Unsat {
				continue
			}
			final := []int32{} // empty clause: global refutation
			if s.Okay() {
				final = []int32{-dimacs(root)}
			}
			obligations = append(obligations, obligation{pos: s.Proof.Len(), final: final})
			if !s.Okay() {
				break
			}
		}
		// Replay the shared session once, discharging each obligation at
		// its recorded position — exactly what CheckDir does per function.
		ck := proof.NewSessionChecker()
		step := 0
		for oi, ob := range obligations {
			for ; step < ob.pos; step++ {
				op, lits := s.Proof.Step(step)
				d := make([]int32, len(lits))
				for j, l := range lits {
					d[j] = dimacs(l)
				}
				var err error
				switch op {
				case sat.OpInput:
					err = ck.AddInput(d)
				case sat.OpLearn:
					err = ck.AddLearnt(d)
				case sat.OpDelete:
					err = ck.Delete(d)
				}
				if err != nil {
					t.Fatalf("iter %d: step %d: %v", iter, step, err)
				}
			}
			if err := ck.CheckFinal(ob.final); err != nil {
				t.Fatalf("iter %d obligation %d: final %v not RUP at pos %d: %v",
					iter, oi, ob.final, ob.pos, err)
			}
		}
	}
}

// pigeonhole builds the classic unsatisfiable PHP(p, h) instance: p
// pigeons into h < p holes. Variable p*h + hole + 1 ... encoded as
// pigeon*h + hole (0-based).
func pigeonhole(pigeons, holes int) (int, [][]int32) {
	v := func(pigeon, hole int) int32 { return int32(pigeon*holes + hole + 1) }
	var clauses [][]int32
	for p := 0; p < pigeons; p++ {
		cl := make([]int32, holes)
		for h := 0; h < holes; h++ {
			cl[h] = v(p, h)
		}
		clauses = append(clauses, cl)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				clauses = append(clauses, []int32{-v(p1, h), -v(p2, h)})
			}
		}
	}
	return pigeons * holes, clauses
}

// TestDifferentialPigeonholeWithDeletions forces the LBD clause-database
// reduction to fire mid-proof (tiny reduce interval on a conflict-heavy
// instance) so the trace contains deletion steps, then verifies the
// refutation still replays: deleted clauses must be strictly matched and
// must not be needed by later RUP checks.
func TestDifferentialPigeonholeWithDeletions(t *testing.T) {
	nvars, clauses := pigeonhole(6, 5)
	s := newLoggedSolver(nvars, clauses)
	s.ReduceInterval = 1
	if got := s.Solve(); got != sat.Unsat {
		t.Fatalf("PHP(6,5) solved as %v, want unsat", got)
	}
	deletions := 0
	for i := 0; i < s.Proof.Len(); i++ {
		if op, _ := s.Proof.Step(i); op == sat.OpDelete {
			deletions++
		}
	}
	if deletions == 0 {
		t.Fatalf("no deletion steps in trace (%d conflicts, %d reduces) — reduce interval did not fire",
			s.Conflicts, s.Reduces)
	}
	ck := replayTrace(t, s.Proof, s.Proof.Len())
	if err := ck.CheckFinal(nil); err != nil {
		t.Fatalf("empty clause not RUP after trace with %d deletions: %v", deletions, err)
	}
	t.Logf("PHP(6,5): %d conflicts, %d trace steps, %d deletions, refutation verified",
		s.Conflicts, s.Proof.Len(), deletions)
}
