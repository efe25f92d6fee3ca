package proof

import (
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestRUPChain verifies the basic RUP discipline: a clause implied by
// unit propagation is accepted, an unsupported clause is rejected.
func TestRUPChain(t *testing.T) {
	ck := NewSessionChecker()
	for _, cl := range [][]int32{{1, 2}, {-1, 2}} {
		if err := ck.AddInput(cl); err != nil {
			t.Fatal(err)
		}
	}
	// {2} is RUP: asserting ¬2 propagates 1 from the first clause and
	// conflicts with the second.
	if err := ck.AddLearnt([]int32{2}); err != nil {
		t.Fatalf("RUP clause rejected: %v", err)
	}
	// {1} is not implied (x1=false, x2=true satisfies both inputs).
	if err := ck.AddLearnt([]int32{1}); err == nil {
		t.Fatal("non-RUP clause accepted")
	}
}

// TestRUPRefutation checks that contradictory units refute the session
// at root and that the empty-clause final obligation then verifies.
func TestRUPRefutation(t *testing.T) {
	ck := NewSessionChecker()
	if err := ck.AddInput([]int32{3}); err != nil {
		t.Fatal(err)
	}
	if ck.RootConflict() {
		t.Fatal("premature root conflict")
	}
	if err := ck.CheckFinal(nil); err == nil {
		t.Fatal("empty clause verified without a refutation")
	}
	if err := ck.AddInput([]int32{-3}); err != nil {
		t.Fatal(err)
	}
	if !ck.RootConflict() {
		t.Fatal("contradictory units did not refute at root")
	}
	if err := ck.CheckFinal(nil); err != nil {
		t.Fatalf("empty clause not RUP after refutation: %v", err)
	}
}

// TestRUPAssumptionFinal models the incremental certificate: the
// negated-assumption clause must be RUP when root propagation falsifies
// the assumption.
func TestRUPAssumptionFinal(t *testing.T) {
	ck := NewSessionChecker()
	// x1 → x2, x1 → ¬x2: root has no forced values, but assuming x1
	// propagates a conflict, so {-1} is RUP.
	for _, cl := range [][]int32{{-1, 2}, {-1, -2}} {
		if err := ck.AddInput(cl); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.CheckFinal([]int32{-1}); err != nil {
		t.Fatalf("negated assumption not RUP: %v", err)
	}
	// The complementary assumption is satisfiable; its negation must not
	// verify.
	if err := ck.CheckFinal([]int32{-2}); err == nil {
		t.Fatal("satisfiable assumption's negation verified")
	}
}

// TestDeleteStrictMatch checks that deletions require an exact live
// clause — a tampered trace deleting a clause that was never added (or
// twice) is rejected.
func TestDeleteStrictMatch(t *testing.T) {
	ck := NewSessionChecker()
	if err := ck.AddInput([]int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Delete([]int32{1, 2}); err == nil {
		t.Fatal("delete of absent clause accepted")
	}
	// Literal order must not matter: the clause key is canonical.
	if err := ck.Delete([]int32{3, 1, 2}); err != nil {
		t.Fatalf("delete of live clause rejected: %v", err)
	}
	if err := ck.Delete([]int32{1, 2, 3}); err == nil {
		t.Fatal("double delete accepted")
	}
}

// TestDeletionDoesNotUnsoundlyKeepPropagating checks the documented
// deletion semantics: a deleted clause leaves already-derived root
// literals in place but stops participating in later propagation.
func TestDeletionDoesNotUnsoundlyKeepPropagating(t *testing.T) {
	ck := NewSessionChecker()
	for _, cl := range [][]int32{{1, 2}, {-1, 2}} {
		if err := ck.AddInput(cl); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Delete([]int32{1, 2}); err != nil {
		t.Fatal(err)
	}
	// With {1,2} gone, {2} is no longer RUP.
	if err := ck.AddLearnt([]int32{2}); err == nil {
		t.Fatal("learnt clause verified against a deleted clause")
	}
}

// rupOracle is a brute-force model of the checker's semantics over a
// handful of variables: the live clauses as sets, the root literals
// derived so far (kept across deletions, as the checker keeps them),
// and naive fixpoint unit propagation in place of watches.
type rupOracle struct {
	live    [][]int32
	root    map[int32]bool // variable → value
	refuted bool
}

func setOf(cl []int32) []int32 {
	var out []int32
	for _, l := range cl {
		if !slices.Contains(out, l) {
			out = append(out, l)
		}
	}
	return out
}

// unitConflict propagates the live clauses to fixpoint from asg and
// reports whether some clause is falsified.
func (o *rupOracle) unitConflict(asg map[int32]bool) bool {
	for changed := true; changed; {
		changed = false
		for _, cl := range o.live {
			open, unit, sat := 0, int32(0), false
			for _, l := range cl {
				v, ok := asg[abs32(l)]
				switch {
				case !ok:
					open, unit = open+1, l
				case v == (l > 0):
					sat = true
				}
			}
			switch {
			case sat:
			case open == 0:
				return true
			case open == 1:
				asg[abs32(unit)] = unit > 0
				changed = true
			}
		}
	}
	return false
}

func (o *rupOracle) rup(cl []int32) bool {
	if o.refuted {
		return true
	}
	asg := maps.Clone(o.root)
	for _, l := range setOf(cl) {
		v, ok := asg[abs32(l)]
		if ok && v == (l > 0) {
			return true // ¬C contradicts the root or itself
		}
		asg[abs32(l)] = l < 0
	}
	return o.unitConflict(asg)
}

func (o *rupOracle) install(cl []int32) {
	o.live = append(o.live, setOf(cl))
	if !o.refuted {
		asg := maps.Clone(o.root)
		if o.unitConflict(asg) {
			o.refuted = true
		} else {
			o.root = asg
		}
	}
}

// remove deletes one live clause equal to cl as a set.
func (o *rupOracle) remove(cl []int32) bool {
	want := setOf(cl)
	for i := len(o.live) - 1; i >= 0; i-- {
		if len(o.live[i]) == len(want) && !slices.ContainsFunc(want, func(l int32) bool {
			return !slices.Contains(o.live[i], l)
		}) {
			o.live = slices.Delete(o.live, i, i+1)
			return true
		}
	}
	return false
}

// TestSessionCheckerMatchesOracle replays random interleavings of input,
// learnt, deleted and final steps over at most eight variables and
// requires the checker to accept exactly the steps the oracle accepts.
// Deletes name live clauses with their literals reordered, or
// same-length clauses that are not live.
func TestSessionCheckerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(0x52_55_50))
	randClause := func(nvars, width int) []int32 {
		cl := make([]int32, width)
		for i := range cl {
			cl[i] = int32(1 + rng.Intn(nvars))
			if rng.Intn(2) == 0 {
				cl[i] = -cl[i]
			}
		}
		return cl
	}
	var accepted, rejected, deletes, badDeletes int
	for iter := 0; iter < 3000; iter++ {
		nvars := 1 + rng.Intn(8)
		ck := NewSessionChecker()
		o := &rupOracle{root: map[int32]bool{}}
		for step := 0; step < 40; step++ {
			width := 1 + rng.Intn(4)
			if rng.Intn(50) == 0 {
				width = 0
			}
			cl := randClause(nvars, width)
			var got error
			var want bool
			switch op := rng.Intn(10); {
			case op < 3 || step < 3:
				got, want = ck.AddInput(cl), true
				o.install(cl)
			case op < 7:
				if op < 6 {
					got = ck.AddLearnt(cl)
				} else {
					got = ck.CheckFinal(cl)
				}
				if want = o.rup(cl); want {
					o.install(cl)
					accepted++
				} else {
					rejected++
				}
			default:
				if len(o.live) > 0 && rng.Intn(3) > 0 {
					live := o.live[rng.Intn(len(o.live))]
					cl = slices.Clone(live)
					rng.Shuffle(len(cl), func(i, j int) { cl[i], cl[j] = cl[j], cl[i] })
					if len(cl) > 0 && rng.Intn(3) == 0 {
						cl[0] = -cl[0] // same length, usually not live
					}
				}
				got = ck.Delete(cl)
				if want = o.remove(cl); want {
					deletes++
				} else {
					badDeletes++
				}
			}
			if (got == nil) != want {
				t.Fatalf("iter %d step %d: clause %v: checker error %v, oracle accepts %v",
					iter, step, cl, got, want)
			}
			if ck.RootConflict() != o.refuted {
				t.Fatalf("iter %d step %d: root conflict %v, oracle %v",
					iter, step, ck.RootConflict(), o.refuted)
			}
		}
	}
	if accepted < 1000 || rejected < 1000 || deletes < 1000 || badDeletes < 1000 {
		t.Fatalf("unbalanced mix: %d accepted, %d rejected, %d deletes, %d bad deletes",
			accepted, rejected, deletes, badDeletes)
	}
}

// TestHugeVariableIndexBoundedMemory pins dense renumbering: variable
// indices near MaxInt32 cost what any other variable costs, so a forged
// trace cannot make the checker allocate by index magnitude.
func TestHugeVariableIndexBoundedMemory(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ck := NewSessionChecker()
	for _, cl := range [][]int32{{math.MaxInt32, -3}, {5000000, 3}, {-math.MaxInt32, -5000000}} {
		if err := ck.AddInput(cl); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.AddLearnt([]int32{math.MaxInt32}); err == nil {
		t.Fatal("non-RUP clause accepted")
	}
	if err := ck.CheckFinal([]int32{5000000, math.MaxInt32}); err != nil {
		t.Fatalf("RUP clause rejected: %v", err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 64<<10 {
		t.Fatalf("three clauses over huge variables allocated %d bytes", d)
	}
	if ck.AddInput([]int32{math.MinInt32}) == nil {
		t.Fatal("literal MinInt32 (no negation in int32) accepted")
	}
}
