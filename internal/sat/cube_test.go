package sat_test

// Differential validation of the cube-and-conquer layer: cubes must
// partition the search space (a Sat cube ⇔ the instance is Sat, all
// cubes Unsat ⇔ the instance is Unsat, cross-checked against brute
// force), the cuber must be deterministic for a fixed seed, and every
// all-cubes-unsat verdict conquered in place must leave a proof log
// whose final obligation replays through the independent RUP checker.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sat"
)

// litsOf converts DIMACS clauses to solver literals.
func litsOf(clauses [][]int32) [][]sat.Lit {
	out := make([][]sat.Lit, len(clauses))
	for i, cl := range clauses {
		lits := make([]sat.Lit, len(cl))
		for j, d := range cl {
			v := d
			if v < 0 {
				v = -v
			}
			lits[j] = sat.MkLit(int(v-1), d < 0)
		}
		out[i] = lits
	}
	return out
}

// conquerInPlace mirrors the smt layer's cube conquest on the logged
// solver s that holds the instance: each cube is solved under assumps
// plus the cube, each refutation is learned back as ¬assumps ∨ ¬cube,
// and once every cube is refuted the internal nodes collapse the same
// way down to ¬assumps. Returns the Sat-winning cube index, or -1.
func conquerInPlace(t *testing.T, s *sat.Solver, assumps []sat.Lit, cs *sat.CubeSet) int {
	t.Helper()
	negation := func(cube []sat.Lit) []sat.Lit {
		var neg []sat.Lit
		for _, l := range append(append([]sat.Lit(nil), assumps...), cube...) {
			neg = append(neg, l.Not())
		}
		return neg
	}
	for i, cube := range cs.Cubes {
		switch s.Solve(append(append([]sat.Lit(nil), assumps...), cube...)...) {
		case sat.Sat:
			return i
		case sat.Unsat:
			s.LearnClause(negation(cube)...)
		default:
			t.Fatalf("cube %d: Unknown verdict with no budget set", i)
		}
	}
	for _, p := range cs.Internal {
		s.LearnClause(negation(p)...)
	}
	s.LearnClause(negation(nil)...)
	return -1
}

// random3CNF generates a random 3-CNF near the satisfiability threshold:
// no unit clauses, so unit propagation and lookahead alone cannot refute
// it and the unsat instances genuinely exercise cube-and-conquer.
func random3CNF(rng *rand.Rand, nvars int) [][]int32 {
	nclauses := 4*nvars + rng.Intn(2*nvars)
	clauses := make([][]int32, nclauses)
	for i := range clauses {
		perm := rng.Perm(nvars)[:3]
		cl := make([]int32, 3)
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

// TestCubeDeterministic: the cuber is a pure function of (instance, seed).
func TestCubeDeterministic(t *testing.T) {
	nvars, clauses := pigeonhole(6, 5)
	lits := litsOf(clauses)
	opt := sat.CubeOptions{MaxVars: 3, Seed: 7}
	a := sat.BuildCubes(nvars, lits, nil, opt)
	b := sat.BuildCubes(nvars, lits, nil, opt)
	if a == nil || b == nil {
		t.Fatal("PHP(6,5) did not cube")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different cube sets:\n%v\n%v", a, b)
	}
	if len(a.Cubes) < 2 || len(a.Cubes) > 8 {
		t.Fatalf("depth-3 cube count out of range: %d", len(a.Cubes))
	}
}

// TestDifferentialCubeInPlace: seeded random CNFs are cubed and
// conquered in place, half of them under an activation assumption (every
// clause gated by ¬act, as incremental queries are). Verdicts must match
// brute force, and every all-cubes-unsat run's proof log must replay
// with its final obligation — the empty clause, or ¬act — RUP at the end.
func TestDifferentialCubeInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC0BE))
	cubed, refuted := 0, 0
	for iter := 0; iter < 300; iter++ {
		nvars := 5 + rng.Intn(4)
		clauses := random3CNF(rng, nvars)
		var assumps []sat.Lit
		var final, wantUnder []int32
		if iter%2 == 1 {
			act := int32(nvars + 1)
			for i, cl := range clauses {
				clauses[i] = append(cl, -act)
			}
			nvars++
			assumps = []sat.Lit{sat.MkLit(int(act-1), false)}
			final, wantUnder = []int32{-act}, []int32{act}
		}
		want := bruteForce(nvars, clauses, wantUnder)
		cs := sat.BuildCubes(nvars, litsOf(clauses), assumps, sat.CubeOptions{MaxVars: 2, Seed: uint64(iter + 1)})
		if cs == nil {
			continue // UP/lookahead-refuted or too small to split: fine
		}
		cubed++
		s := newLoggedSolver(nvars, clauses)
		if winner := conquerInPlace(t, s, assumps, cs); winner >= 0 {
			if !want {
				t.Fatalf("iter %d: cube %v satisfiable but brute force says unsat\ncnf: %v",
					iter, cs.Cubes[winner], clauses)
			}
			continue
		}
		if want {
			t.Fatalf("iter %d: all %d cubes refuted but brute force says sat\ncnf: %v",
				iter, len(cs.Cubes), clauses)
		}
		refuted++
		ck := replayTrace(t, s.Proof, s.Proof.Len())
		if err := ck.CheckFinal(final); err != nil {
			t.Fatalf("iter %d: final obligation %v not RUP after the conquest: %v\ncnf: %v",
				iter, final, err, clauses)
		}
	}
	if cubed < 50 || refuted < 10 {
		t.Fatalf("suite too weak: only %d instances cubed, %d all-cubes-unsat", cubed, refuted)
	}
	t.Logf("%d instances cubed, %d all-cubes-unsat logs verified", cubed, refuted)
}
