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
