package proof

import (
	"fmt"
	"math"
	"slices"
)

// SessionChecker replays one SAT session trace forward, verifying every
// learnt clause by reverse unit propagation (RUP): asserting the
// negation of the clause and running unit propagation over the clauses
// live at that point must yield a conflict. It is a propagation-only
// engine — no decisions, no learning, no heuristics — so it shares no
// code path with the CDCL solver it checks.
//
// Soundness under deletion: deleting a clause only shrinks the live set
// used for later propagation; root literals already derived remain
// logical consequences of the input clauses plus previously verified
// lemmas, so they are kept (exactly as DRAT checkers do).
//
// Layout (after drat-trim): clauses live in one flat arena, watchers
// carry a blocker literal tested before the clause is read, and a
// binary clause's watchers are marked so that their blocker, the other
// literal, decides without reading the clause at all. Strict deletion
// matches by a commutative hash confirmed literal by literal. Variables
// are renumbered densely on first sight, through a slice while the
// index stays under a bound set by the variables seen so far and
// through a map above it, so memory grows with the trace, never with
// the magnitude of a variable index.
type SessionChecker struct {
	dense  []int32         // DIMACS variable → dense index + 1 (0: unseen), below denseBound
	sparse map[int32]int32 // DIMACS variable → dense index, for the rest
	val    []int8          // by internal literal: 1 true, -1 false, 0 unassigned
	mark   []bool          // by internal literal: in the clause just interned
	trail  []int32
	qhead  int

	// arena holds each installed clause as a header word (len<<1 |
	// deleted) followed by its internal literals; a clause is named by
	// the offset of its header.
	arena   []int32
	watches [][]watcher // by literal p: clauses watching ¬p
	// byHash names one live clause per clause hash; the others with that
	// hash, oldest first, sit in collide, which only duplicate clauses and
	// true hash collisions reach. Neither allocates per clause.
	byHash  map[uint64]int32
	collide map[uint64][]int32
	lits    []int32 // the clause just interned

	rootConflict bool
	rootTrail    int // length of the persistent prefix of trail
}

// watcher is one watch of a clause. blocker is a literal of the clause:
// while it is true the clause is satisfied and is not read. A binary
// clause's watchers hold ^offset (negative) in cref and the other
// literal as blocker, which then alone decides keep, unit or conflict.
type watcher struct{ cref, blocker int32 }

// denseBound is the DIMACS variable index, exclusive, up to which the
// dense slice may grow once vars variables are known: a constant factor
// over the trace so far, so a forged index costs a map entry, never
// memory proportional to its magnitude.
func denseBound(vars int) int { return 4*vars + 4096 }

// maxArena bounds a session's arena so offsets and headers fit int32.
const maxArena = math.MaxInt32 / 2

// NewSessionChecker returns an empty checker.
func NewSessionChecker() *SessionChecker {
	return &SessionChecker{byHash: make(map[uint64]int32)}
}

// varIndex returns the dense index of DIMACS variable v (v > 0),
// assigning the next one on first sight.
func (c *SessionChecker) varIndex(v int32) int32 {
	if int(v) < len(c.dense) {
		if x := c.dense[v]; x != 0 {
			return x - 1
		}
	}
	// An index first seen above the bound stays in sparse even after the
	// slice has grown past it.
	if x, ok := c.sparse[v]; ok {
		return x
	}
	x := int32(len(c.val) / 2)
	c.val = append(c.val, 0, 0)
	c.mark = append(c.mark, false, false)
	c.watches = append(c.watches, nil, nil)
	if bound := denseBound(int(x)); int(v) < bound {
		if int(v) >= len(c.dense) { // append grows the capacity geometrically
			c.dense = append(c.dense, make([]int32, int(v)+1-len(c.dense))...)
		}
		c.dense[v] = x + 1
	} else {
		if c.sparse == nil {
			c.sparse = make(map[int32]int32)
		}
		c.sparse[v] = x
	}
	return x
}

// intern maps a DIMACS clause into c.lits as internal literals (2*dense
// variable + sign bit), dropping repeats — clauses are sets. Each
// literal stays marked until unmark.
func (c *SessionChecker) intern(dimacs []int32) error {
	c.lits = c.lits[:0]
	for _, d := range dimacs {
		if d == 0 || d == math.MinInt32 {
			c.unmark()
			return fmt.Errorf("proof: bad literal %d in clause", d)
		}
		v, neg := d, int32(0)
		if v < 0 {
			v, neg = -v, 1
		}
		if l := c.varIndex(v)<<1 | neg; !c.mark[l] {
			c.mark[l] = true
			c.lits = append(c.lits, l)
		}
	}
	return nil
}

func (c *SessionChecker) unmark() {
	for _, l := range c.lits {
		c.mark[l] = false
	}
}

func (c *SessionChecker) enqueue(l int32) {
	c.val[l], c.val[l^1] = 1, -1
	c.trail = append(c.trail, l)
}

// propagate runs unit propagation to fixpoint; it reports whether a
// conflict was reached.
func (c *SessionChecker) propagate() bool {
	for c.qhead < len(c.trail) {
		p := c.trail[c.qhead]
		c.qhead++
		// watches[p] holds the clauses watching ¬p, which p's assertion
		// has just falsified.
		notP := p ^ 1
		ws := c.watches[p]
		i, j := 0, 0
	nextWatcher:
		for i < len(ws) {
			w := ws[i]
			i++
			b := c.val[w.blocker]
			if b == 1 {
				ws[j] = w
				j++
				continue
			}
			if w.cref < 0 { // binary: the blocker is the other literal
				ws[j] = w
				j++
				if b == -1 {
					j += copy(ws[j:], ws[i:])
					c.watches[p] = ws[:j]
					c.qhead = len(c.trail)
					return true
				}
				c.enqueue(w.blocker)
				continue
			}
			hdr := c.arena[w.cref]
			if hdr&1 != 0 {
				continue // deleted: drop lazily
			}
			lits := c.arena[w.cref+1 : w.cref+1+hdr>>1]
			if lits[0] == notP {
				lits[0], lits[1] = lits[1], notP
			}
			first := lits[0]
			if c.val[first] == 1 {
				ws[j] = watcher{w.cref, first}
				j++
				continue
			}
			for k := 2; k < len(lits); k++ {
				if c.val[lits[k]] != -1 {
					lits[1], lits[k] = lits[k], notP
					// The clause now watches lits[1]; index it under the
					// literal whose assertion falsifies it.
					nw := lits[1] ^ 1
					c.watches[nw] = append(c.watches[nw], watcher{w.cref, first})
					continue nextWatcher
				}
			}
			ws[j] = watcher{w.cref, first}
			j++
			if c.val[first] == -1 {
				j += copy(ws[j:], ws[i:])
				c.watches[p] = ws[:j]
				c.qhead = len(c.trail)
				return true
			}
			c.enqueue(first)
		}
		if j < len(ws) {
			c.watches[p] = ws[:j]
		}
	}
	return false
}

// backtrack unassigns every literal beyond the persistent root prefix.
func (c *SessionChecker) backtrack() {
	for _, l := range c.trail[c.rootTrail:] {
		c.val[l], c.val[l^1] = 0, 0
	}
	c.trail = c.trail[:c.rootTrail]
	c.qhead = c.rootTrail
}

// clauseHash is a commutative multiset hash of a clause: the sum of
// a mixer over its literals, so literal order does not matter.
func clauseHash(lits []int32) uint64 {
	var h uint64
	for _, l := range lits {
		x := uint64(l) + 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		h += x ^ x>>31
	}
	return h
}

// AddInput adds an original clause (no RUP obligation) to the live set.
func (c *SessionChecker) AddInput(dimacs []int32) error {
	if err := c.intern(dimacs); err != nil {
		return err
	}
	c.unmark()
	return c.install(c.lits)
}

// AddLearnt verifies the clause by RUP against the current live set and,
// on success, adds it.
func (c *SessionChecker) AddLearnt(dimacs []int32) error {
	if err := c.intern(dimacs); err != nil {
		return err
	}
	c.unmark()
	if !c.rup(c.lits) {
		return fmt.Errorf("proof: learnt clause %v is not RUP", dimacs)
	}
	return c.install(c.lits)
}

// Delete removes a clause from the live set. The clause must be present
// (strict matching catches tampered traces). Among equal live clauses
// the latest installed goes first.
func (c *SessionChecker) Delete(dimacs []int32) error {
	if err := c.intern(dimacs); err != nil {
		return err
	}
	defer c.unmark()
	h := clauseHash(c.lits)
	first, ok := c.byHash[h]
	if !ok {
		return fmt.Errorf("proof: delete of absent clause %v", dimacs)
	}
	more := c.collide[h]
	for i := len(more) - 1; i >= 0; i-- {
		if c.sameAsMarked(more[i]) {
			c.remove(more[i])
			if len(more) == 1 {
				delete(c.collide, h)
			} else {
				c.collide[h] = append(more[:i], more[i+1:]...)
			}
			return nil
		}
	}
	if !c.sameAsMarked(first) {
		return fmt.Errorf("proof: delete of absent clause %v", dimacs)
	}
	c.remove(first)
	switch len(more) {
	case 0:
		delete(c.byHash, h)
	case 1:
		c.byHash[h] = more[0]
		delete(c.collide, h)
	default:
		c.byHash[h] = more[0]
		c.collide[h] = more[1:]
	}
	return nil
}

// remove marks clause cref deleted. Long clauses lose their watchers
// lazily, when propagation next visits them; a binary clause's watchers
// never read the clause, so they are unhooked here.
func (c *SessionChecker) remove(cref int32) {
	c.arena[cref] |= 1
	if c.arena[cref]>>1 != 2 {
		return
	}
	a, b := c.arena[cref+1], c.arena[cref+2]
	c.unwatch(a^1, watcher{^cref, b})
	c.unwatch(b^1, watcher{^cref, a})
}

func (c *SessionChecker) unwatch(p int32, w watcher) {
	if i := slices.Index(c.watches[p], w); i >= 0 {
		c.watches[p] = slices.Delete(c.watches[p], i, i+1)
	}
}

// sameAsMarked reports whether clause cref holds exactly the marked
// literals of c.lits. Both are repeat-free, so equal length plus
// containment is set equality.
func (c *SessionChecker) sameAsMarked(cref int32) bool {
	n := c.arena[cref] >> 1
	if int(n) != len(c.lits) {
		return false
	}
	for _, l := range c.arena[cref+1 : cref+1+n] {
		if !c.mark[l] {
			return false
		}
	}
	return true
}

// CheckFinal verifies that the clause is RUP against the current live
// set — the per-query Unsat obligation (empty = global refutation) —
// and, on success, installs it as a proven lemma.
func (c *SessionChecker) CheckFinal(dimacs []int32) error {
	if err := c.intern(dimacs); err != nil {
		return err
	}
	c.unmark()
	if !c.rup(c.lits) {
		return fmt.Errorf("proof: final clause %v is not RUP", dimacs)
	}
	return c.install(c.lits)
}

// RootConflict reports whether the live set has been refuted at the root
// level (the empty clause is derivable by propagation alone).
func (c *SessionChecker) RootConflict() bool { return c.rootConflict }

// rup reports whether asserting the negation of lits propagates to a
// conflict. The trail is restored to the persistent root prefix.
func (c *SessionChecker) rup(lits []int32) bool {
	if c.rootConflict {
		return true
	}
	conflict := false
	for _, l := range lits {
		if c.val[l] == 1 {
			conflict = true // ¬C contradicts the root (or itself)
			break
		}
		if c.val[l] == 0 {
			c.enqueue(l ^ 1)
		}
	}
	if !conflict {
		conflict = c.propagate()
	}
	c.backtrack()
	return conflict
}

// install adds a clause to the live set and extends the persistent root
// state: empty clauses set the root conflict, unit (or effectively unit)
// clauses are propagated at root.
func (c *SessionChecker) install(lits []int32) error {
	if len(c.arena)+1+len(lits) > maxArena {
		return fmt.Errorf("proof: session exceeds %d literals", maxArena)
	}
	cref := int32(len(c.arena))
	c.arena = append(append(c.arena, int32(len(lits))<<1), lits...)
	h := clauseHash(lits)
	if _, dup := c.byHash[h]; !dup {
		c.byHash[h] = cref
	} else {
		if c.collide == nil {
			c.collide = make(map[uint64][]int32)
		}
		c.collide[h] = append(c.collide[h], cref)
	}
	if c.rootConflict {
		return nil
	}
	// Classify under the current root assignment, moving the non-false
	// literals to the front.
	cl := c.arena[cref+1:]
	n := 0
	for i, l := range cl {
		switch c.val[l] {
		case 1:
			return nil // root-satisfied: root assignments persist, so it never propagates
		case 0:
			cl[n], cl[i] = l, cl[n]
			n++
		}
	}
	switch n {
	case 0:
		c.rootConflict = true
	case 1:
		c.enqueue(cl[0])
		if c.propagate() {
			c.rootConflict = true
		}
		c.rootTrail = len(c.trail)
	default:
		w := cref
		if len(lits) == 2 {
			w = ^cref
		}
		c.watches[cl[0]^1] = append(c.watches[cl[0]^1], watcher{w, cl[1]})
		c.watches[cl[1]^1] = append(c.watches[cl[1]^1], watcher{w, cl[0]})
	}
	return nil
}
