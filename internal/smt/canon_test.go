package smt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// namedRandomTerm mirrors randomTerm but draws variables from the given
// name list, so the same rng sequence builds structurally identical terms
// over different variable names (and in different Contexts).
func namedRandomTerm(c *Context, rng *rand.Rand, width uint8, depth int, names []string) *Term {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(len(names) + 1) {
		case 0:
			return c.BV(rng.Uint64(), width)
		default:
			return c.VarBV(names[rng.Intn(len(names))], width)
		}
	}
	a := namedRandomTerm(c, rng, width, depth-1, names)
	b := namedRandomTerm(c, rng, width, depth-1, names)
	switch rng.Intn(8) {
	case 0:
		return c.Add(a, b)
	case 1:
		return c.Sub(a, b)
	case 2:
		return c.Mul(a, b)
	case 3:
		return c.And(a, b)
	case 4:
		return c.Or(a, b)
	case 5:
		return c.Xor(a, b)
	case 6:
		return c.NotBV(a)
	default:
		return c.Shl(a, b)
	}
}

// TestCanonicalHashAlphaInvariant: a bijective renaming of variables across
// two independent Contexts must not change the key.
func TestCanonicalHashAlphaInvariant(t *testing.T) {
	f := func(seed int64) bool {
		c1, c2 := NewContext(), NewContext()
		rng1 := rand.New(rand.NewSource(seed))
		rng2 := rand.New(rand.NewSource(seed))
		t1 := c1.Eq(namedRandomTerm(c1, rng1, 8, 4, []string{"x", "y", "z"}),
			namedRandomTerm(c1, rng1, 8, 4, []string{"x", "y", "z"}))
		t2 := c2.Eq(namedRandomTerm(c2, rng2, 8, 4, []string{"r12!a", "tmp", "sp!p0!7"}),
			namedRandomTerm(c2, rng2, 8, 4, []string{"r12!a", "tmp", "sp!p0!7"}))
		k1, n1 := CanonicalHash(t1)
		k2, n2 := CanonicalHash(t2)
		if k1 != k2 {
			t.Logf("seed %d: keys differ for alpha-equivalent terms\n  %v\n  %v", seed, t1, t2)
			return false
		}
		if n1 != n2 || n1 <= 0 {
			t.Logf("seed %d: serialized byte counts %d vs %d", seed, n1, n2)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCanonicalHashNonBijectiveRenamingDiffers: collapsing two distinct
// variables onto one is NOT alpha-equivalence and must change the key —
// the property that makes serving a cached verdict for the collapsed
// formula unsound.
func TestCanonicalHashNonBijectiveRenamingDiffers(t *testing.T) {
	c := NewContext()
	x, y := c.VarBV("x", 16), c.VarBV("y", 16)
	two := c.Raw(KAdd, 16, 0, "", 0, 0, x, y)       // x + y (raw node: no simplification reordering)
	collapsed := c.Raw(KAdd, 16, 0, "", 0, 0, x, x) // x + x
	k1, _ := CanonicalHash(c.Eq(two, c.BV(0, 16)))
	k2, _ := CanonicalHash(c.Eq(collapsed, c.BV(0, 16)))
	if k1 == k2 {
		t.Fatalf("x+y and x+x hash identically: cache would conflate them")
	}
}

// TestCanonicalHashSharingPattern: repeated use of ONE variable pair must
// hash differently from the same shape over two disjoint pairs. The DAG
// serialization encodes sharing, which is exactly what separates them.
func TestCanonicalHashSharingPattern(t *testing.T) {
	c := NewContext()
	mk := func(a, b *Term) *Term { return c.Ult(a, b) }
	ab := mk(c.VarBV("a", 8), c.VarBV("b", 8))
	cd := mk(c.VarBV("cc", 8), c.VarBV("d", 8))
	shared := c.AndB(ab, c.OrB(ab, c.False()))
	distinct := c.AndB(ab, c.OrB(cd, c.False()))
	// Simplification may collapse trivially; rebuild with raw nodes.
	sharedRaw := c.Raw(KBAnd, 0, 0, "", 0, 0, ab, ab)
	distinctRaw := c.Raw(KBAnd, 0, 0, "", 0, 0, ab, cd)
	k1, _ := CanonicalHash(sharedRaw)
	k2, _ := CanonicalHash(distinctRaw)
	if k1 == k2 {
		t.Fatalf("(p∧p) and (p∧q) hash identically")
	}
	_ = shared
	_ = distinct
}

// TestCanonicalHashSensitivity: keys must react to width, constant value,
// kind, and extract bounds.
func TestCanonicalHashSensitivity(t *testing.T) {
	c := NewContext()
	x16, y16 := c.VarBV("x", 16), c.VarBV("y", 16)
	x8, y8 := c.VarBV("x8", 8), c.VarBV("y8", 8)
	terms := []*Term{
		c.Eq(c.Add(x16, y16), c.BV(0, 16)),
		c.Eq(c.Sub(x16, y16), c.BV(0, 16)),
		c.Eq(c.Add(x8, y8), c.BV(0, 8)),
		c.Eq(c.Add(x16, y16), c.BV(1, 16)),
		c.Ult(x16, y16),
		c.Eq(c.Extract(x16, 7, 0), c.BV(0, 8)),
		c.Eq(c.Extract(x16, 15, 8), c.BV(0, 8)),
	}
	seen := map[CanonKey]int{}
	for i, tm := range terms {
		k, _ := CanonicalHash(tm)
		if j, dup := seen[k]; dup {
			t.Errorf("terms %d and %d hash identically: %v vs %v", i, j, terms[i], terms[j])
		}
		seen[k] = i
	}
}

// TestCanonicalHashStableAcrossCalls: hashing is a pure function of the
// term (and the solver memo returns the identical key).
func TestCanonicalHashStableAcrossCalls(t *testing.T) {
	c := NewContext()
	f := c.Eq(c.Add(c.VarBV("x", 32), c.VarBV("y", 32)), c.BV(7, 32))
	k1, n1 := CanonicalHash(f)
	k2, n2 := CanonicalHash(f)
	if k1 != k2 || n1 != n2 {
		t.Fatalf("CanonicalHash not deterministic: %x/%d vs %x/%d", k1, n1, k2, n2)
	}
	s := NewSolver(c)
	if got := s.canonKey(f); got != k1 {
		t.Fatalf("solver memoized key differs from direct hash")
	}
	bytesAfterFirst := s.Stats.CacheBytes
	if got := s.canonKey(f); got != k1 || s.Stats.CacheBytes != bytesAfterFirst {
		t.Fatalf("memoized rehash re-charged bytes: %d -> %d", bytesAfterFirst, s.Stats.CacheBytes)
	}
}

// TestCanonicalHashDeepTerm: the iterative traversal must survive terms
// far deeper than any recursion limit.
func TestCanonicalHashDeepTerm(t *testing.T) {
	c := NewContext()
	x := c.VarBV("x", 64)
	acc := x
	for i := 0; i < 200_000; i++ {
		acc = c.Raw(KNot, 64, 0, "", 0, 0, acc)
	}
	k, n := CanonicalHash(c.Eq(acc, x))
	if n <= 0 {
		t.Fatalf("no bytes hashed")
	}
	var zero CanonKey
	if k == zero {
		t.Fatalf("zero key")
	}
}
