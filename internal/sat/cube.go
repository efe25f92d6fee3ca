package sat

import "sort"

// Cube-and-conquer support: the escalation tier above portfolio racing.
//
// A query that survives probing and a full portfolio race is not stuck on
// an unlucky restart schedule — it is structurally hard, and restarting
// the same search under yet another configuration buys nothing. Cubing
// splits the instance instead: a lookahead pass over a Snapshot picks the
// k variables whose assignment propagates the most on both polarities,
// and the 2^k leaves of the resulting decision tree become independent
// subproblems ("cubes") solved under assumptions. A satisfiable cube
// satisfies the whole instance; refuting every cube refutes it, and the
// per-cube DRAT traces compose into one certificate (ComposeCubeProof)
// the unchanged RUP checker verifies.
//
// The cuber is deterministic for a fixed seed: candidate scores are
// computed from the clause set alone and ties are broken by a seeded
// splitmix64 hash, so the same snapshot always yields the same cubes.

// CubeOptions configures BuildCubes.
type CubeOptions struct {
	// MaxVars is the branching depth k: up to 2^k cubes (0 = default 4).
	MaxVars int
	// Candidates bounds the occurrence-prefiltered pool of variables that
	// receive a full two-sided lookahead probe (0 = default 64).
	Candidates int
	// Seed drives the deterministic tie-breaks between equally scored
	// variables (0 = a fixed default).
	Seed uint64
}

// CubeSet is the output of BuildCubes: the leaves of the cube tree in
// depth-first order, plus the tree structure the proof composition needs.
type CubeSet struct {
	// Vars are the chosen branching variables, root split first.
	Vars []int
	// Cubes are the leaves in DFS order. Each cube is a set of assumption
	// literals; a leaf whose prefix already conflicted under unit
	// propagation is emitted at its (shorter) collapse depth.
	Cubes [][]Lit
	// Internal holds the expanded internal-node prefixes in post-order,
	// root (the empty prefix) excluded. For every internal node p with
	// branch literal d, the clause ¬p is RUP once the clauses ¬(p∧d) and
	// ¬(p∧¬d) of its two children are present — the collapse steps that
	// let the composed certificate derive the empty clause at the root.
	Internal [][]Lit
}

// splitmix64 is the SplitMix64 mixing function — a cheap, well-distributed
// deterministic hash used for tie-breaking and seed derivation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Splitmix64 exposes the mixer for callers deriving per-index solver
// seeds (portfolio racers, cube workers) deterministically.
func Splitmix64(x uint64) uint64 { return splitmix64(x) }

// BuildCubes runs the lookahead cuber over an instance exported by
// Solver.Snapshot (clauses over nvars variables) plus extra unit literals
// (an incremental query's activation assumptions). It returns nil when
// the instance is not worth splitting: refuted by unit propagation or
// lookahead alone, or with fewer than two live leaves.
func BuildCubes(nvars int, clauses [][]Lit, units []Lit, opt CubeOptions) *CubeSet {
	k := opt.MaxVars
	if k <= 0 {
		k = 4
	}
	pool := opt.Candidates
	if pool <= 0 {
		pool = 64
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}

	sc := New()
	for v := 0; v < nvars; v++ {
		sc.NewVar()
	}
	for _, cl := range clauses {
		if !sc.AddClause(cl...) {
			return nil // refuted by unit propagation alone: nothing to split
		}
	}
	for _, u := range units {
		if !sc.AddClause(u) {
			return nil
		}
	}

	// Occurrence-weighted prefilter: each literal occurrence contributes
	// 2^-len, so variables in many short clauses — the ones whose
	// assignment constrains the most — rise to the top without a probe.
	occ := make([]float64, nvars)
	for _, c := range sc.clauses {
		if sc.ca.deleted(c) {
			continue
		}
		lits := sc.ca.lits(c)
		w := len(lits)
		if w > 24 {
			w = 24
		}
		weight := 1.0 / float64(uint64(1)<<uint(w))
		for _, l := range lits {
			occ[l.Var()] += weight
		}
	}
	type cand struct {
		v     int
		score float64
		tie   uint64
	}
	byScore := func(cs []cand) {
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].score != cs[j].score {
				return cs[i].score > cs[j].score
			}
			if cs[i].tie != cs[j].tie {
				return cs[i].tie < cs[j].tie
			}
			return cs[i].v < cs[j].v
		})
	}
	var cands []cand
	for v := 0; v < nvars; v++ {
		if sc.assigns[v] != lUndef || sc.isEliminated(v) || occ[v] == 0 {
			continue
		}
		cands = append(cands, cand{v: v, score: occ[v], tie: splitmix64(seed + uint64(v))})
	}
	if len(cands) == 0 {
		return nil
	}
	byScore(cands)
	if len(cands) > pool {
		cands = cands[:pool]
	}

	// Two-sided lookahead: assert each polarity at a fresh decision level,
	// propagate, and score by the product of the trail growths — the
	// classic march-style measure favoring balanced splitters. A polarity
	// that conflicts is a failed literal: its complement is asserted at
	// the root (strengthening later probes) and the variable is dropped.
	scored := make([]cand, 0, len(cands))
	for _, c := range cands {
		if sc.assigns[c.v] != lUndef {
			continue // assigned by an earlier failed-literal propagation
		}
		var growth [2]int
		failed := false
		for pol := 0; pol < 2; pol++ {
			lit := MkLit(c.v, pol == 1)
			sc.trailLim = append(sc.trailLim, int32(len(sc.trail)))
			before := len(sc.trail)
			sc.uncheckedEnqueue(lit, crefUndef)
			confl := sc.propagate()
			growth[pol] = len(sc.trail) - before
			sc.cancelUntil(0)
			if confl != crefUndef {
				sc.uncheckedEnqueue(lit.Not(), crefUndef)
				if sc.propagate() != crefUndef {
					return nil // both polarities fail: refuted by lookahead
				}
				failed = true
				break
			}
		}
		if failed {
			continue
		}
		c.score = float64(growth[0]) * float64(growth[1])
		scored = append(scored, c)
	}
	if len(scored) == 0 {
		return nil
	}
	byScore(scored)
	if len(scored) > k {
		scored = scored[:k]
	}
	vars := make([]int, len(scored))
	for i, c := range scored {
		vars[i] = c.v
	}

	// DFS over the decision tree: positive branch first at every node.
	// A prefix whose unit-propagation closure conflicts (or that branches
	// on an already-falsified literal) collapses into a leaf right there —
	// the conquering solver refutes it in one cheap conflict, and the
	// composition needs a clause for every leaf, so it is still emitted.
	cs := &CubeSet{Vars: vars}
	prefix := make([]Lit, 0, len(vars))
	var dfs func(depth int)
	dfs = func(depth int) {
		if depth == len(vars) {
			cs.Cubes = append(cs.Cubes, append([]Lit(nil), prefix...))
			return
		}
		for pol := 0; pol < 2; pol++ {
			lit := MkLit(vars[depth], pol == 1)
			prefix = append(prefix, lit)
			switch sc.valueLit(lit) {
			case lFalse:
				cs.Cubes = append(cs.Cubes, append([]Lit(nil), prefix...))
			case lTrue:
				dfs(depth + 1) // already implied: same state, one level deeper
			default:
				lv := sc.decisionLevel()
				sc.trailLim = append(sc.trailLim, int32(len(sc.trail)))
				sc.uncheckedEnqueue(lit, crefUndef)
				if sc.propagate() != crefUndef {
					cs.Cubes = append(cs.Cubes, append([]Lit(nil), prefix...))
				} else {
					dfs(depth + 1)
				}
				sc.cancelUntil(lv)
			}
			prefix = prefix[:len(prefix)-1]
		}
		if depth > 0 {
			cs.Internal = append(cs.Internal, append([]Lit(nil), prefix...))
		}
	}
	dfs(0)
	if len(cs.Cubes) < 2 {
		return nil
	}
	return cs
}

// CubeTrace is one conquering solver's contribution to a composed
// certificate: its proof log, the cubes it refuted in verdict order, and
// for each the log length at the moment of the verdict — the position at
// which the cube's negation clause becomes RUP.
type CubeTrace struct {
	Log   *ProofLog
	Cubes [][]Lit
	Marks []int
}

// ComposeCubeProof assembles one self-contained refutation trace from the
// per-cube traces of an all-cubes-unsat verdict:
//
//  1. the snapshot clauses and activation units, logged once as inputs
//     (every conquering solver imported this exact sequence);
//  2. each trace's learnt and delete steps — its own input steps are
//     skipped, they duplicate (1) — with the negation clause ¬C of each
//     refuted cube C appended at its verdict mark. ¬C is RUP there: a
//     CDCL refutation under assumptions means unit propagation from the
//     cube literals over the clauses live at the verdict reaches a
//     conflict. RUP is monotone under added clauses, so interleaving the
//     other workers' clauses preserves every step;
//  3. the internal-node collapse clauses in post-order — each RUP from
//     its two children's clauses — down to the root, whose two child
//     clauses are complementary units: the empty clause is RUP, which is
//     exactly the final obligation the unchanged checker discharges.
//
// Deletions are safe to interleave: a conquering solver only ever deletes
// its own learnt clauses, and the checker's LIFO multiset matching pairs
// each deletion with that solver's copy, never another's.
func ComposeCubeProof(clauses [][]Lit, units []Lit, traces []CubeTrace, internal [][]Lit) *ProofLog {
	out := &ProofLog{}
	for _, cl := range clauses {
		out.append(OpInput, cl)
	}
	for _, u := range units {
		out.append(OpInput, []Lit{u})
	}
	var neg []Lit
	negate := func(c []Lit) []Lit {
		neg = neg[:0]
		for _, l := range c {
			neg = append(neg, l.Not())
		}
		return neg
	}
	for _, tr := range traces {
		n := tr.Log.Len()
		j := 0
		for i := 0; i <= n; i++ {
			for j < len(tr.Marks) && tr.Marks[j] == i {
				out.append(OpLearn, negate(tr.Cubes[j]))
				j++
			}
			if i == n {
				break
			}
			op, lits := tr.Log.Step(i)
			if op == OpInput {
				continue
			}
			out.append(op, lits)
		}
	}
	for _, p := range internal {
		out.append(OpLearn, negate(p))
	}
	return out
}
