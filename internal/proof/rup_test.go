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

// TestDeletedBinaryClauseStopsPropagating is the binary case of
// TestDeletionDoesNotUnsoundlyKeepPropagating. A binary clause's
// watchers decide from their blocker without reading the clause, so
// they never see its deleted bit: deletion must unhook them, one copy
// at a time when the clause is live twice.
func TestDeletedBinaryClauseStopsPropagating(t *testing.T) {
	ck := NewSessionChecker()
	for _, cl := range [][]int32{{1, 2}, {1, 2}, {-1, 2}} {
		if err := ck.AddInput(cl); err != nil {
			t.Fatal(err)
		}
	}
	// Each probe adds a fresh variable, so the lemma it installs cannot
	// make {2} itself follow.
	if err := ck.AddLearnt([]int32{2, 4}); err != nil {
		t.Fatalf("RUP clause rejected: %v", err)
	}
	if err := ck.Delete([]int32{2, 1}); err != nil {
		t.Fatal(err)
	}
	if err := ck.AddLearnt([]int32{2, 5}); err != nil {
		t.Fatalf("RUP clause rejected with one copy of {1,2} live: %v", err)
	}
	if err := ck.Delete([]int32{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := ck.AddLearnt([]int32{2, 6}); err == nil {
		t.Fatal("learnt clause verified against a deleted binary clause")
	}
	if err := ck.Delete([]int32{1, 2}); err == nil {
		t.Fatal("third delete of a clause added twice accepted")
	}
	for p, ws := range ck.watches {
		for _, w := range ws {
			if w.cref < 0 && ck.arena[^w.cref]&1 != 0 {
				t.Errorf("literal %d still watches deleted binary clause %d", p, ^w.cref)
			}
		}
	}
}

// TestRenumberingNearBoundStaysLinear walks each new variable index up
// to just under the dense slice's growth bound, the most the slice may
// cover, and requires allocation to stay linear in the trace: the slice
// grows geometrically, never one index at a time, and never past the
// bound.
func TestRenumberingNearBoundStaysLinear(t *testing.T) {
	const n = 50000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ck := NewSessionChecker()
	first := int32(denseBound(0) - 1)
	prev := first
	for i := 1; i < n; i++ {
		// i variables are known before v; the clause says prev → v.
		v := int32(denseBound(i) - 1)
		if err := ck.AddInput([]int32{-prev, v}); err != nil {
			t.Fatal(err)
		}
		prev = v
	}
	runtime.ReadMemStats(&after)
	if len(ck.sparse) != 0 || len(ck.dense) > denseBound(n) {
		t.Fatalf("%d sparse entries, dense slice %d over bound %d", len(ck.sparse), len(ck.dense), denseBound(n))
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 2048*n {
		t.Fatalf("%d variables allocated %d bytes (%d per variable)", n, d, d/n)
	}
	if err := ck.CheckFinal([]int32{-first, prev}); err != nil {
		t.Fatalf("implication chain not RUP: %v", err)
	}
	// One index above the bound goes to the map.
	if err := ck.AddInput([]int32{int32(denseBound(n + 1)), prev}); err != nil {
		t.Fatal(err)
	}
	if len(ck.sparse) != 1 {
		t.Fatalf("index above the bound: %d sparse entries, want 1", len(ck.sparse))
	}
}

// TestRenumberingSparseIndexSurvivesGrowth: an index first seen above
// the bound lives in the map; once the dense slice grows past it, the
// variable must keep its dense index rather than get a fresh one.
func TestRenumberingSparseIndexSurvivesGrowth(t *testing.T) {
	ck := NewSessionChecker()
	v := int32(denseBound(0) + 100)
	if err := ck.AddInput([]int32{-v, 1}); err != nil { // v → 1
		t.Fatal(err)
	}
	// Enough variables that the bound passes v, then one index beyond v
	// so the slice covers it.
	for i := int32(2); denseBound(len(ck.val)/2) <= int(v); i++ {
		if err := ck.AddInput([]int32{i, -i - 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.AddInput([]int32{v + 1, 2}); err != nil {
		t.Fatal(err)
	}
	if len(ck.dense) <= int(v) {
		t.Fatalf("dense slice of %d does not cover %d", len(ck.dense), v)
	}
	if err := ck.CheckFinal([]int32{-v, 1}); err != nil {
		t.Fatalf("v renumbered on second sight: %v", err)
	}
}

// FuzzSessionChecker drives the checker with a small trace decoded from
// the input and requires it to accept exactly the steps the brute-force
// oracle of TestSessionCheckerMatchesOracle accepts. The first byte
// picks how many of eight variables the trace uses; the pool mixes
// small indices with ones above the dense renumbering bound. Each step
// is an op byte and a width byte followed by width literal bytes: input,
// learnt, final, a delete of the given clause, or a delete of a live
// clause (chosen by the width byte) with its literals reversed.
func FuzzSessionChecker(f *testing.F) {
	f.Add([]byte{3, 0, 2, 2, 4, 0, 2, 3, 4, 1, 1, 4, 3, 2, 2, 4, 1, 1, 4})
	f.Add([]byte{7, 0, 3, 2, 5, 9, 0, 2, 3, 6, 4, 0, 3, 10, 12, 14, 2, 2, 11, 13, 4, 1, 1, 1, 10})
	f.Add([]byte{1, 0, 1, 0, 0, 1, 1, 2, 0, 0})
	pool := [8]int32{1, 2, 3, 4, 5000, 1 << 20, math.MaxInt32 - 1, math.MaxInt32}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nvars := 1 + int(data[0]%8)
		data = data[1:]
		ck := NewSessionChecker()
		o := &rupOracle{root: map[int32]bool{}}
		for step := 0; len(data) >= 2 && step < 64; step++ {
			op, width := data[0]%5, int(data[1]%5)
			choice := int(data[1])
			data = data[2:]
			var cl []int32
			if op == 4 {
				if len(o.live) == 0 {
					continue
				}
				cl = slices.Clone(o.live[choice%len(o.live)])
				slices.Reverse(cl)
				op = 3
			} else {
				width = min(width, len(data))
				for _, b := range data[:width] {
					l := pool[int(b>>1)%nvars]
					if b&1 != 0 {
						l = -l
					}
					cl = append(cl, l)
				}
				data = data[width:]
			}
			var got error
			var want bool
			switch op {
			case 0:
				got, want = ck.AddInput(cl), true
				o.install(cl)
			case 1, 2:
				if op == 1 {
					got = ck.AddLearnt(cl)
				} else {
					got = ck.CheckFinal(cl)
				}
				if want = o.rup(cl); want {
					o.install(cl)
				}
			case 3:
				got, want = ck.Delete(cl), o.remove(cl)
			}
			if (got == nil) != want {
				t.Fatalf("step %d: op %d clause %v: checker error %v, oracle accepts %v", step, op, cl, got, want)
			}
			if ck.RootConflict() != o.refuted {
				t.Fatalf("step %d: root conflict %v, oracle %v", step, ck.RootConflict(), o.refuted)
			}
		}
	})
}

// TestDeleteUnderHashCollision: two different live clauses of one
// length with the same clause hash (found by a generalized-birthday
// search over 16-subsets of the first 120 positive literals) share one
// index slot, so each deletion must confirm its clause literal by
// literal and remove that one, whichever is deleted first.
func TestDeleteUnderHashCollision(t *testing.T) {
	a := []int32{2, 7, 9, 13, 17, 21, 22, 30, 31, 43, 48, 52, 54, 57, 59, 60}
	b := []int32{66, 68, 71, 72, 78, 80, 85, 90, 94, 95, 97, 98, 100, 108, 114, 116}
	for _, order := range [][2][]int32{{a, b}, {b, a}} {
		ck := NewSessionChecker()
		all := make([]int32, 120)
		for i := range all {
			all[i] = int32(i + 1) // variable v gets dense index v-1
		}
		for _, cl := range [][]int32{all, a, b} {
			if err := ck.AddInput(cl); err != nil {
				t.Fatal(err)
			}
		}
		if err := ck.intern(a); err != nil {
			t.Fatal(err)
		}
		ck.unmark()
		ha := clauseHash(ck.lits)
		if err := ck.intern(b); err != nil {
			t.Fatal(err)
		}
		ck.unmark()
		if hb := clauseHash(ck.lits); ha != hb {
			t.Fatalf("fixture no longer collides (%#x, %#x): search again for the current clauseHash", ha, hb)
		}
		// a holds the index slot and b its overflow list.
		for i, cl := range order {
			if err := ck.Delete(cl); err != nil {
				t.Fatalf("delete %d of a live colliding clause: %v", i, err)
			}
			if ck.Delete(cl) == nil {
				t.Fatalf("delete %d: second delete of a colliding clause accepted", i)
			}
		}
		if len(ck.byHash) != 1 || len(ck.collide) != 0 {
			t.Fatalf("index keeps %d slots and %d overflow lists, want only the wide clause's", len(ck.byHash), len(ck.collide))
		}
	}
}
