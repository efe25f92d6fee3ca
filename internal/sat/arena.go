package sat

import "math"

// Clause storage: every clause of a Solver lives in one flat []Lit arena,
// MiniSat-style. A clause reference (cref) is the offset of the clause's
// header word; the literals follow the header inline. Learnt clauses carry
// three more words in front of the header — their LBD and their float64
// activity split in two — so the literals always start one word after the
// header and propagate needs no branch to find them.
//
//	problem clause: [hdr, l0, l1, ...]
//	learnt clause:  [lbd, act lo, act hi, hdr, l0, l1, ...]
//
// The header word holds the clause size above hdrFlagBits flag bits. No
// watcher, reason, or list entry holds a pointer, so the garbage collector
// neither scans the clause database nor puts write barriers on the hot
// propagate loop.
//
// Deleting a clause only sets its hdrDeleted flag (watchers drop lazily in
// propagate) and counts its words as wasted. When the wasted words reach
// half the arena, Solver.maybeCompact copies the live clauses into a fresh
// arena at decision level 0; see Solver.compact for what it preserves.

// cref is a clause reference: the arena offset of a clause's header.
type cref uint32

// crefUndef is the "no clause" sentinel (no reason, no conflict).
const crefUndef = ^cref(0)

// crefTombstone is a permanent deleted clause of size 0 at offset 0. After
// a compaction every deleted problem clause's entry in Solver.clauses
// points at it, so the list keeps its length and order.
const crefTombstone cref = 0

// Header flags.
const (
	hdrLearnt  = 1 << iota // learnt by conflict analysis; has the LBD/activity words
	hdrDeleted             // removed from the database; watchers drop lazily
	// hdrLogged records that the clause's literals match a clause step in
	// the proof trace verbatim (learnt and derived clauses always; input
	// clauses only when AddClause normalization changed nothing). Deleting
	// an unlogged clause must not emit a trace deletion — the checker's
	// strict matching would reject it — so the checker just keeps it
	// live, which is sound: deletions only ever shrink the live set.
	hdrLogged
	hdrMoved    // compaction only: the clause was copied; the next word is its new cref
	hdrFlagBits = 4
)

// learntExtra is the number of words a learnt clause stores in front of
// its header.
const learntExtra = 3

type clauseArena struct {
	mem    []Lit
	wasted int // words held by deleted clauses, the tombstone excluded
}

func newClauseArena(capacity int) clauseArena {
	mem := make([]Lit, 1, capacity+1)
	mem[crefTombstone] = hdrDeleted
	return clauseArena{mem: mem}
}

// alloc appends a clause and returns its reference. It may grow, and so
// move, mem: a []Lit view taken before alloc must be re-sliced after it.
func (a *clauseArena) alloc(lits []Lit, learnt, logged bool) cref {
	h := Lit(len(lits)) << hdrFlagBits
	if learnt {
		a.mem = append(a.mem, 0, 0, 0)
		h |= hdrLearnt
	}
	if logged {
		h |= hdrLogged
	}
	if len(a.mem)+1+len(lits) >= math.MaxUint32 {
		panic("sat: clause arena exceeds 2^32 words")
	}
	c := cref(len(a.mem))
	a.mem = append(a.mem, h)
	a.mem = append(a.mem, lits...)
	return c
}

func (a *clauseArena) size(c cref) int { return int(uint32(a.mem[c]) >> hdrFlagBits) }

// lits returns the clause's literals as a view into the arena: writes
// through it (propagate's watch swaps) update the clause in place.
func (a *clauseArena) lits(c cref) []Lit {
	i := int(c) + 1
	n := i + a.size(c)
	return a.mem[i:n:n]
}

func (a *clauseArena) learnt(c cref) bool  { return a.mem[c]&hdrLearnt != 0 }
func (a *clauseArena) deleted(c cref) bool { return a.mem[c]&hdrDeleted != 0 }
func (a *clauseArena) logged(c cref) bool  { return a.mem[c]&hdrLogged != 0 }

func (a *clauseArena) lbd(c cref) int32       { return int32(a.mem[c-3]) }
func (a *clauseArena) setLBD(c cref, v int32) { a.mem[c-3] = Lit(v) }

func (a *clauseArena) act(c cref) float64 {
	return math.Float64frombits(uint64(uint32(a.mem[c-2])) | uint64(uint32(a.mem[c-1]))<<32)
}

func (a *clauseArena) setAct(c cref, v float64) {
	b := math.Float64bits(v)
	a.mem[c-2] = Lit(uint32(b))
	a.mem[c-1] = Lit(uint32(b >> 32))
}

// words is the clause's footprint in the arena, header and extras included.
func (a *clauseArena) words(c cref) int {
	n := 1 + a.size(c)
	if a.learnt(c) {
		n += learntExtra
	}
	return n
}

// free marks c deleted and counts its words as wasted.
func (a *clauseArena) free(c cref) {
	a.mem[c] |= hdrDeleted
	a.wasted += a.words(c)
}

// maybeCompact compacts the arena once deleted clauses hold half of it.
// Must be called at decision level 0.
func (s *Solver) maybeCompact() {
	if s.ca.wasted*2 >= len(s.ca.mem) && !s.noAutoCompact {
		s.compact()
	}
}

// compact copies every live clause into a fresh arena — the problem
// clauses in Solver.clauses order, then the learnt clauses in
// Solver.learnts order — and rewrites every reference to it. Nothing the
// search reads changes:
//
//   - clauses and learnts keep their lengths and order; a deleted problem
//     clause's entry becomes crefTombstone, which is deleted too;
//   - every watch list keeps its live watchers in order and loses only
//     the watchers of deleted clauses, which propagate would have
//     dropped unread;
//   - a live clause keeps its literal order, flags, LBD and activity;
//   - a reason pointing at a deleted clause (a root-level implication
//     whose clause inprocessing later removed) becomes crefUndef. Root
//     reasons are never read by analysis, and locked compares a reason
//     only against live clauses.
//
// Must be called at decision level 0 with no cref held outside the
// solver's lists.
func (s *Solver) compact() {
	if s.decisionLevel() != 0 {
		panic("sat: clause arena compaction above decision level 0")
	}
	old := s.ca.mem
	s.ca = newClauseArena(len(old) - 1 - s.ca.wasted)
	move := func(c cref) cref {
		h := old[c]
		if h&hdrDeleted != 0 {
			return crefTombstone
		}
		if h&hdrMoved != 0 {
			return cref(old[c+1])
		}
		start := int(c)
		if h&hdrLearnt != 0 {
			start -= learntExtra
		}
		end := int(c) + 1 + int(uint32(h)>>hdrFlagBits)
		nc := cref(len(s.ca.mem) + int(c) - start)
		s.ca.mem = append(s.ca.mem, old[start:end]...)
		old[c] = hdrMoved
		old[c+1] = Lit(nc)
		return nc
	}
	for i, c := range s.clauses {
		s.clauses[i] = move(c)
	}
	for i, c := range s.learnts {
		s.learnts[i] = move(c)
	}
	for p, ws := range s.watches {
		j := 0
		for _, w := range ws {
			h := old[w.c]
			if h&hdrDeleted != 0 {
				continue
			}
			if h&hdrMoved == 0 {
				panic("sat: watched clause missing from the clause lists")
			}
			ws[j] = watcher{cref(old[w.c+1]), w.blocker}
			j++
		}
		s.watches[p] = ws[:j]
	}
	for _, l := range s.trail {
		v := l.Var()
		if r := s.reason[v]; r != crefUndef {
			if old[r]&hdrDeleted != 0 {
				s.reason[v] = crefUndef
			} else {
				s.reason[v] = cref(old[r+1])
			}
		}
	}
	s.compactions++
}
