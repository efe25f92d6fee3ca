package smt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/proof"
)

// TestIncrementalMatchesCold: an incremental solver answering a SEQUENCE
// of queries must agree with fresh cold solvers answering each query
// independently — including queries over shared memory terms (which
// exercise the persistent Ackermann-constraint bookkeeping).
func TestIncrementalMatchesCold(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ctx := NewContext()
		inc := NewSolver(ctx)
		inc.Incremental = true

		m := ctx.VarMem("M")
		for q := 0; q < 6; q++ {
			var form *Term
			switch rng.Intn(3) {
			case 0: // pure bitvector query
				a := randomTerm(ctx, rng, 4, 3)
				b := randomTerm(ctx, rng, 4, 3)
				form = ctx.Eq(a, b)
			case 1: // memory select/store query
				addr1 := ctx.VarBV("p", 64)
				addr2 := ctx.BV(uint64(rng.Intn(4)), 64)
				v := ctx.VarBV("v", 8)
				chain := ctx.Store(m, addr1, v)
				if rng.Intn(2) == 0 {
					chain = ctx.Store(chain, addr2, ctx.BV(uint64(rng.Intn(256)), 8))
				}
				form = ctx.Eq(ctx.Select(chain, addr2), ctx.VarBV("w", 8))
			default: // memory equality query
				a1 := ctx.BV(uint64(rng.Intn(3)), 64)
				a2 := ctx.BV(uint64(rng.Intn(3)), 64)
				v1 := ctx.VarBV("v1", 8)
				v2 := ctx.VarBV("v2", 8)
				m1 := ctx.Store(ctx.Store(m, a1, v1), a2, v2)
				m2 := ctx.Store(ctx.Store(m, a2, v2), a1, v1)
				form = ctx.Eq(m1, m2)
			}
			if rng.Intn(2) == 0 {
				form = ctx.Not(form)
			}

			gotInc, _, errInc := inc.CheckSat(form)
			cold := NewSolver(ctx)
			gotCold, _, errCold := cold.CheckSat(form)
			if (errInc == nil) != (errCold == nil) {
				t.Logf("seed %d q %d: error mismatch inc=%v cold=%v", seed, q, errInc, errCold)
				return false
			}
			if errInc != nil {
				continue
			}
			if gotInc != gotCold {
				t.Logf("seed %d q %d: inc=%v cold=%v form=%v", seed, q, gotInc, gotCold, form)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalModelValidity: Sat models from the incremental path must
// satisfy the formula.
func TestIncrementalModelValidity(t *testing.T) {
	ctx := NewContext()
	s := NewSolver(ctx)
	s.Incremental = true
	x := ctx.VarBV("x", 16)
	y := ctx.VarBV("y", 16)
	// A sequence of queries narrowing the space.
	queries := []*Term{
		ctx.Ult(x, ctx.BV(100, 16)),
		ctx.AndB(ctx.Ult(x, y), ctx.Ult(y, ctx.BV(50, 16))),
		ctx.Eq(ctx.Add(x, y), ctx.BV(77, 16)),
	}
	for i, q := range queries {
		res, model, err := s.CheckSat(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if res != ResultSat {
			t.Fatalf("query %d: %v, want sat", i, res)
		}
		ok, err := model.EvalBool(q)
		if err != nil || !ok {
			t.Fatalf("query %d: model invalid (err=%v)", i, err)
		}
	}
	// And an unsat query on the same instance.
	res, _, err := s.CheckSat(ctx.AndB(ctx.Ult(x, y), ctx.Ult(y, x)))
	if err != nil || res != ResultUnsat {
		t.Fatalf("unsat query: %v %v", res, err)
	}
	// The instance is still usable afterwards.
	res, _, err = s.CheckSat(ctx.Eq(x, ctx.BV(1, 16)))
	if err != nil || res != ResultSat {
		t.Fatalf("post-unsat query: %v %v", res, err)
	}
}

// TestResetIncrementalScopesInstance: two query groups over disjoint
// variables, with ResetIncremental between them, the way the checker
// runs two sync points. The second group's instance must hold only its
// own encoding, every Unsat certificate of both proof sessions must
// verify, and a model kept from the first group must still answer a
// second-group query (its variables are unassigned there and read as
// zero).
func TestResetIncrementalScopesInstance(t *testing.T) {
	ctx := NewContext()
	rec, finish := newTestRecorder(t, "reset")
	s := NewSolver(ctx)
	s.Incremental = true
	s.Inprocess = true
	s.Recorder = rec
	check := func(s *Solver, f *Term, want Result) {
		t.Helper()
		res, _, err := s.CheckSat(f)
		if err != nil || res != want {
			t.Fatalf("CheckSat(%v) = %v, %v; want %v", f, res, err, want)
		}
	}
	x1, y1 := ctx.VarBV("x1", 16), ctx.VarBV("y1", 16)
	check(s, ctx.AndB(ctx.Eq(ctx.Add(x1, y1), ctx.BV(300, 16)), ctx.Ult(x1, y1)), ResultSat)
	check(s, ctx.AndB(ctx.Ult(x1, y1), ctx.Ult(y1, x1)), ResultUnsat)
	first := s.incSAT
	firstVars := first.NumVars()

	s.ResetIncremental()
	kept := append([]*Assign(nil), s.models...)
	x2, y2 := ctx.VarBV("x2", 16), ctx.VarBV("y2", 16)
	group2 := []struct {
		f    *Term
		want Result
	}{
		// x2 is unassigned in the first group's model, so it reads as 0.
		{ctx.Ult(x2, ctx.BV(5, 16)), ResultSat},
		{ctx.AndB(ctx.Eq(x2, ctx.BV(7, 16)), ctx.Ult(x2, y2)), ResultSat},
		{ctx.AndB(ctx.Ult(x2, y2), ctx.Ult(y2, x2)), ResultUnsat},
	}
	hits := s.Stats.ModelHits
	for _, q := range group2 {
		check(s, q.f, q.want)
	}
	if s.Stats.ModelHits == hits {
		t.Error("no second-group query was answered by a model kept from the first group")
	}
	if s.incSAT == first {
		t.Fatal("ResetIncremental kept the first instance")
	}
	if s.Stats.Instances != 2 {
		t.Errorf("Stats.Instances = %d, want 2", s.Stats.Instances)
	}
	for v := range s.incBlaster.bvMemo {
		if v.Kind == KVarBV && (v.Name == "x1" || v.Name == "y1") {
			t.Errorf("second instance encodes first-group variable %s", v.Name)
		}
	}
	// A solver that never saw the first group, holding the same kept
	// models, builds exactly the second instance.
	fresh := NewSolver(ctx)
	fresh.Incremental = true
	fresh.Inprocess = true
	fresh.models = kept
	for _, q := range group2 {
		check(fresh, q.f, q.want)
	}
	if got, want := s.incSAT.NumVars(), fresh.incSAT.NumVars(); got != want {
		t.Errorf("second instance has %d variables, a fresh solver %d (first instance %d)", got, want, firstVars)
	}

	report, err := proof.CheckDir(finish())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range report.Rejections {
		t.Errorf("rejection: %s", r)
	}
	if n := report.ByKind[proof.KindDRAT]; n != 2 {
		t.Errorf("verified %d DRAT certificates, want one per session", n)
	}
}
