package sat

import (
	"math/rand"
	"reflect"
	"testing"
)

// twinStep adds one round of clauses to s, all guarded by a fresh
// activation literal it returns: a satisfiable-leaning random 3-CNF over
// the shared variables, and on odd rounds an unsatisfiable pigeonhole
// block over fresh ones. Two solvers fed the same rng seed get the same
// clauses.
func twinStep(s *Solver, rng *rand.Rand, round, shared int) Lit {
	act := MkLit(s.NewVar(), false)
	for i := 0; i < 4*shared/3; i++ {
		cl := []Lit{act.Not()}
		for _, v := range rng.Perm(shared)[:3] {
			cl = append(cl, MkLit(v, rng.Intn(2) == 1))
		}
		s.AddClause(cl...)
	}
	if round%2 == 1 {
		const pigeons, holes = 6, 5
		var p [pigeons][holes]int
		for i := range p {
			for j := range p[i] {
				p[i][j] = s.NewVar()
			}
		}
		for i := 0; i < pigeons; i++ {
			cl := []Lit{act.Not()}
			for j := 0; j < holes; j++ {
				cl = append(cl, MkLit(p[i][j], false))
			}
			s.AddClause(cl...)
		}
		for j := 0; j < holes; j++ {
			for i := 0; i < pigeons; i++ {
				for k := i + 1; k < pigeons; k++ {
					s.AddClause(act.Not(), MkLit(p[i][j], true), MkLit(p[k][j], true))
				}
			}
		}
	}
	return act
}

// TestCompactionPreservesSearch runs two identical solvers — LBD
// reduction, inprocessing and proof logging on — through the same
// incremental query sequence. One compacts its clause arena after every
// call, the other never does. Compaction must be invisible: the same
// verdicts, counters, models, exported CNF, and proof trace, step for
// step.
func TestCompactionPreservesSearch(t *testing.T) {
	const shared, rounds = 30, 40
	mk := func() *Solver {
		s := New()
		s.ReduceInterval = 50
		s.InprocessMin = 1
		s.Proof = &ProofLog{}
		for v := 0; v < shared; v++ {
			s.NewVar()
		}
		return s
	}
	a, b := mk(), mk()
	b.noAutoCompact = true
	ra, rb := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	var sats, unsats int
	for r := 0; r < rounds; r++ {
		actA, actB := twinStep(a, ra, r, shared), twinStep(b, rb, r, shared)
		stA, stB := a.Solve(actA), b.Solve(actB)
		if stA != stB {
			t.Fatalf("round %d: verdict %v with compaction, %v without", r, stA, stB)
		}
		if a.Conflicts != b.Conflicts || a.Decisions != b.Decisions || a.Propagations != b.Propagations {
			t.Fatalf("round %d: conflicts/decisions/propagations %d/%d/%d with compaction, %d/%d/%d without",
				r, a.Conflicts, a.Decisions, a.Propagations, b.Conflicts, b.Decisions, b.Propagations)
		}
		if stA == Sat {
			sats++
			for v := 0; v < a.NumVars(); v++ {
				if a.Value(v) != b.Value(v) {
					t.Fatalf("round %d: models differ at variable %d", r, v)
				}
			}
		} else {
			unsats++
		}
		a.compact()
	}
	if sats == 0 || unsats == 0 {
		t.Fatalf("sequence is one-sided (%d sat, %d unsat); it must exercise both verdicts", sats, unsats)
	}
	if a.NumClauses() != b.NumClauses() {
		t.Fatalf("NumClauses %d with compaction, %d without", a.NumClauses(), b.NumClauses())
	}
	na, ca := a.Snapshot()
	nb, cb := b.Snapshot()
	if na != nb || !reflect.DeepEqual(ca, cb) {
		t.Fatal("Snapshot differs between the twins")
	}
	if a.Proof.Len() != b.Proof.Len() {
		t.Fatalf("proof length %d with compaction, %d without", a.Proof.Len(), b.Proof.Len())
	}
	for i := 0; i < a.Proof.Len(); i++ {
		opA, litsA := a.Proof.Step(i)
		opB, litsB := b.Proof.Step(i)
		if opA != opB || !reflect.DeepEqual(litsA, litsB) {
			t.Fatalf("proof step %d: %c %v with compaction, %c %v without", i, opA, litsA, opB, litsB)
		}
	}

	// The sequence must have exercised what compaction rewrites: deleted
	// learnt and problem clauses, and tombstones in the problem list.
	if b.Removed == 0 || b.Subsumed+b.Strengthened+b.Vivified == 0 {
		t.Fatalf("no deletions to compact (removed %d, subsumed %d, strengthened %d, vivified %d)",
			b.Removed, b.Subsumed, b.Strengthened, b.Vivified)
	}
	if b.compactions != 0 || b.ca.wasted == 0 {
		t.Fatalf("the non-compacting twin compacted %d times (wasted %d words)", b.compactions, b.ca.wasted)
	}
	tombs := 0
	for _, c := range a.clauses {
		if c == crefTombstone {
			tombs++
		}
	}
	if tombs == 0 {
		t.Fatal("no deleted problem clause became a tombstone")
	}
	if len(a.ca.mem) >= len(b.ca.mem) {
		t.Fatalf("compacted arena holds %d words, uncompacted %d", len(a.ca.mem), len(b.ca.mem))
	}
	t.Logf("%d sat, %d unsat, %d conflicts, %d tombstones, arena %d vs %d words",
		sats, unsats, a.Conflicts, tombs, len(a.ca.mem), len(b.ca.mem))
}

// TestAutoCompactionTriggers: with the wasted-words trigger on, a long
// LBD run reclaims its deleted clauses on its own.
func TestAutoCompactionTriggers(t *testing.T) {
	s := New()
	s.ReduceInterval = 50
	pigeonholeSolver(s, 8, 7)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve() = %v, want Unsat", got)
	}
	if s.compactions == 0 {
		t.Fatalf("no compaction after %d reductions removing %d clauses", s.Reduces, s.Removed)
	}
}
