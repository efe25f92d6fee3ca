package sat

import "testing"

// TestDeletedWatcherDropped is the regression test for the stale-watcher
// bug: propagate must check the deleted flag before the blocker shortcut,
// or a deleted clause whose blocker happens to be true keeps its watcher
// forever, defeating lazy detachment.
func TestDeletedWatcherDropped(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	la := MkLit(a, false)
	lb := MkLit(b, false)
	s.AddClause(la, lb) // watchers under ¬a (blocker b) and ¬b (blocker a)
	s.AddClause(lb)     // make the blocker of the ¬a watcher true
	s.ca.mem[s.clauses[0]] |= hdrDeleted
	s.AddClause(la.Not()) // enqueue ¬a: propagate scans the ¬a watch list
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want Sat", st)
	}
	if n := len(s.watches[la.Not()]); n != 0 {
		t.Fatalf("deleted clause kept %d stale watcher(s) behind a true blocker", n)
	}
}

// TestFreezePreventsElimination: (a ∨ b) ∧ (¬b ∨ c) makes b a textbook
// elimination candidate (one resolvent replaces two clauses); Freeze must
// veto it while the unfrozen run eliminates it.
func TestFreezePreventsElimination(t *testing.T) {
	build := func() *Solver {
		s := New()
		a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
		s.AddClause(MkLit(a, false), MkLit(b, false))
		s.AddClause(MkLit(b, true), MkLit(c, false))
		s.Inprocess = true
		s.InprocessMin = 1
		s.InprocessElim = true
		return s
	}

	s := build()
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want Sat", st)
	}
	if s.Eliminated == 0 {
		t.Fatal("expected at least one eliminated variable in the unfrozen run")
	}

	s = build()
	s.Freeze(0)
	s.Freeze(1)
	s.Freeze(2)
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want Sat", st)
	}
	if s.Eliminated != 0 {
		t.Fatalf("froze every variable, yet %d were eliminated", s.Eliminated)
	}
}

// TestEliminatedAssumptionPanics: assuming an eliminated variable is a
// caller bug (Freeze exists for that) and must fail loudly, not corrupt
// the search.
func TestEliminatedAssumptionPanics(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(b, true), MkLit(c, false))
	s.Inprocess = true
	s.InprocessMin = 1
	s.InprocessElim = true
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want Sat", st)
	}
	if !s.eliminated[b] {
		t.Skipf("variable b not eliminated (heuristics changed); nothing to assert")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Solve accepted an assumption on an eliminated variable")
		}
	}()
	s.Solve(MkLit(b, false))
}

// TestPureLiteralGatedByProof: with a proof log attached, pure-literal
// elimination (the one non-RUP rewrite) must stay off unless the caller
// opts in via ElimUnchecked.
func TestPureLiteralGatedByProof(t *testing.T) {
	build := func() *Solver {
		s := New()
		a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
		// a is pure (only positive). The clauses differ in two flipped
		// literals so self-subsumption cannot collapse them first, and b,
		// c are frozen so pure-literal elimination of a is the only
		// rewrite elimPass has available.
		s.AddClause(MkLit(a, false), MkLit(b, false), MkLit(c, false))
		s.AddClause(MkLit(a, false), MkLit(b, true), MkLit(c, true))
		s.Freeze(b)
		s.Freeze(c)
		s.Inprocess = true
		s.InprocessMin = 1
		s.InprocessElim = true
		return s
	}

	s := build()
	s.Proof = &ProofLog{}
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want Sat", st)
	}
	if s.Eliminated != 0 {
		t.Fatalf("pure-literal elimination ran under proof logging without ElimUnchecked (%d vars)", s.Eliminated)
	}

	s = build()
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want Sat", st)
	}
	if s.Eliminated == 0 {
		t.Fatal("expected pure-literal elimination without a proof log")
	}
}
