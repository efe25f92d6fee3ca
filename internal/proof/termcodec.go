package proof

import (
	"fmt"

	"repro/internal/term"
)

// TNode is one serialized term-DAG node. Nodes are stored in
// topological order: argument indices always point at earlier nodes, so
// a single forward pass decodes the table. Kinds are named by mnemonic
// (see term.KindName) so the format is independent of ordinal values.
type TNode struct {
	K  string `json:"k"`
	W  uint8  `json:"w,omitempty"`
	V  string `json:"v,omitempty"`
	N  string `json:"n,omitempty"`
	Hi uint8  `json:"hi,omitempty"`
	Lo uint8  `json:"lo,omitempty"`
	A  []int  `json:"a,omitempty"`
}

// decodeNode rebuilds node i of a serialized table; resolved holds the
// terms of all earlier nodes. It uses the raw (non-simplifying)
// constructor, so the checker evaluates exactly the DAG that was
// certified: re-simplifying during decode would let a constructor bug
// mask itself. The raw constructor trusts its caller and the evaluator
// indexes arguments by position, so every node of the untrusted segment
// is first held to the sort discipline of the smart constructors
// (checkNode).
func decodeNode(ctx *term.Context, i int, n *TNode, resolved []*term.Term) (*term.Term, error) {
	k, ok := term.KindByName(n.K)
	if !ok {
		return nil, fmt.Errorf("proof: node %d has unknown kind %q", i, n.K)
	}
	var val uint64
	if n.V != "" {
		if _, err := fmt.Sscanf(n.V, "%d", &val); err != nil {
			return nil, fmt.Errorf("proof: node %d has bad value %q: %v", i, n.V, err)
		}
	}
	args := make([]*term.Term, len(n.A))
	for j, ai := range n.A {
		if ai < 0 || ai >= i {
			return nil, fmt.Errorf("proof: node %d references node %d (not topologically ordered)", i, ai)
		}
		args[j] = resolved[ai]
	}
	if err := checkNode(k, n, val, args); err != nil {
		return nil, fmt.Errorf("proof: node %d (%s): %v", i, n.K, err)
	}
	return ctx.Raw(k, n.W, val, n.N, n.Hi, n.Lo, args...), nil
}

var sortNames = [...]string{term.SortBool: "Bool", term.SortBV: "BV", term.SortMem: "Mem"}

// checkNode returns an error unless a node of kind k with the decoded
// value val and arguments args is one the smart constructors could have
// built: the
// kind's arity and argument sorts, bitvector widths in 1..64 that agree
// with the operator, and no name, value or bit index on a kind that
// carries none. The arguments are earlier nodes, already checked.
func checkNode(k term.Kind, n *TNode, val uint64, args []*term.Term) error {
	switch {
	case n.N != "" && k != term.KVarBV && k != term.KVarBool && k != term.KVarMem:
		return fmt.Errorf("name %q on a non-variable", n.N)
	case val != 0 && k != term.KConstBV && k != term.KConstBool:
		return fmt.Errorf("value %d on a non-constant", val)
	case (n.Hi != 0 || n.Lo != 0) && k != term.KExtract:
		return fmt.Errorf("bit indices on a non-extract")
	}

	const B, V, M = term.SortBool, term.SortBV, term.SortMem
	var sorts []term.SortKind
	switch k {
	case term.KNeg, term.KNot, term.KExtract, term.KZExt, term.KSExt:
		sorts = []term.SortKind{V}
	case term.KAdd, term.KSub, term.KMul, term.KUDiv, term.KURem, term.KAnd, term.KOr,
		term.KXor, term.KShl, term.KLShr, term.KAShr, term.KConcat,
		term.KUlt, term.KUle, term.KSlt, term.KSle:
		sorts = []term.SortKind{V, V}
	case term.KEq: // over any sort, both sides alike
		sorts = []term.SortKind{V, V}
		if len(args) == 2 {
			sorts[0], sorts[1] = args[0].SortKind(), args[0].SortKind()
		}
	case term.KIte: // branches of any sort, both alike
		sorts = []term.SortKind{B, V, V}
		if len(args) == 3 {
			sorts[1], sorts[2] = args[1].SortKind(), args[1].SortKind()
		}
	case term.KBAnd, term.KBOr:
		sorts = []term.SortKind{B, B}
	case term.KBNot:
		sorts = []term.SortKind{B}
	case term.KSelect:
		sorts = []term.SortKind{M, V}
	case term.KStore:
		sorts = []term.SortKind{M, V, V}
	}
	if len(args) != len(sorts) {
		return fmt.Errorf("%d arguments, want %d", len(args), len(sorts))
	}
	for j, srt := range sorts {
		if got := args[j].SortKind(); got != srt {
			return fmt.Errorf("argument %d is %s, want %s", j, sortNames[got], sortNames[srt])
		}
	}

	// w is the width the operator gives its result: 1..64 for a
	// bitvector, 0 for Bool and Mem.
	var w uint8
	sameWidth := func(a, b int) error {
		if args[a].Width != args[b].Width {
			return fmt.Errorf("argument widths %d and %d differ", args[a].Width, args[b].Width)
		}
		return nil
	}
	switch k {
	case term.KConstBV, term.KVarBV, term.KZExt, term.KSExt:
		if n.W == 0 || n.W > 64 {
			return fmt.Errorf("width %d outside 1..64", n.W)
		}
		w = n.W
		if k == term.KConstBV && w < 64 && val>>w != 0 {
			return fmt.Errorf("value %d does not fit width %d", val, w)
		}
		if (k == term.KZExt || k == term.KSExt) && w < args[0].Width {
			return fmt.Errorf("extension from width %d to %d", args[0].Width, w)
		}
	case term.KConstBool:
		if val > 1 {
			return fmt.Errorf("Bool constant %d", val)
		}
	case term.KAdd, term.KSub, term.KMul, term.KUDiv, term.KURem, term.KAnd, term.KOr,
		term.KXor, term.KShl, term.KLShr, term.KAShr:
		if err := sameWidth(0, 1); err != nil {
			return err
		}
		w = args[0].Width
	case term.KNeg, term.KNot:
		w = args[0].Width
	case term.KConcat:
		if sum := int(args[0].Width) + int(args[1].Width); sum > 64 {
			return fmt.Errorf("concat width %d exceeds 64", sum)
		}
		w = args[0].Width + args[1].Width
	case term.KExtract:
		if n.Hi >= args[0].Width || n.Lo > n.Hi {
			return fmt.Errorf("extract [%d:%d] of width %d", n.Hi, n.Lo, args[0].Width)
		}
		w = n.Hi - n.Lo + 1
	case term.KIte:
		if err := sameWidth(1, 2); err != nil {
			return err
		}
		w = args[1].Width
	case term.KEq, term.KUlt, term.KUle, term.KSlt, term.KSle:
		if err := sameWidth(0, 1); err != nil {
			return err
		}
	case term.KSelect:
		if args[1].Width != 64 {
			return fmt.Errorf("select address width %d, want 64", args[1].Width)
		}
		w = 8
	case term.KStore:
		if args[1].Width != 64 || args[2].Width != 8 {
			return fmt.Errorf("store address/value widths %d/%d, want 64/8", args[1].Width, args[2].Width)
		}
	}
	if n.W != w {
		return fmt.Errorf("width %d, want %d", n.W, w)
	}
	return nil
}

// termLoader lazily materializes one function's term segment into one
// term context. Nodes decode in a monotonic prefix (ids are
// topological), memoized across the function's certificates and its
// witness, so the segment is read and decoded once per CheckDir.
type termLoader struct {
	nodes []TNode
	ctx   *term.Context
	terms []*term.Term
	next  int
}

func newTermLoader(nodes []TNode) *termLoader {
	return &termLoader{nodes: nodes, ctx: term.NewContext(), terms: make([]*term.Term, len(nodes))}
}

// Term returns the term with id i, decoding the segment prefix up to i
// on first use.
func (l *termLoader) Term(i int) (*term.Term, error) {
	if i < 0 || i >= len(l.nodes) {
		return nil, fmt.Errorf("term id %d out of range (table has %d nodes)", i, len(l.nodes))
	}
	for ; l.next <= i; l.next++ {
		t, err := decodeNode(l.ctx, l.next, &l.nodes[l.next], l.terms)
		if err != nil {
			return nil, err
		}
		l.terms[l.next] = t
	}
	return l.terms[i], nil
}
