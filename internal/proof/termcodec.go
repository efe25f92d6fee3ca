package proof

import (
	"fmt"
	"sync"

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
// mask itself.
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
	return ctx.Raw(k, n.W, val, n.N, n.Hi, n.Lo, args...), nil
}

// termLoader lazily materializes a term segment of a proof directory
// into one term context. Nodes decode in a monotonic
// prefix (ids are topological), memoized across every function the
// checker replays, so the segment is read and decoded once per CheckDir.
// It is safe for concurrent use: CheckDir's workers share the run-wide
// segment, and decoded terms are immutable once Term returns them.
type termLoader struct {
	mu    sync.Mutex
	nodes []TNode
	ctx   *term.Context
	terms []*term.Term
	next  int
}

func newTermLoader(nodes []TNode) *termLoader {
	return &termLoader{nodes: nodes, ctx: term.NewContext(), terms: make([]*term.Term, len(nodes))}
}

// Term returns the term with global id i, decoding the table prefix up
// to i on first use.
func (l *termLoader) Term(i int) (*term.Term, error) {
	if i < 0 || i >= len(l.nodes) {
		return nil, fmt.Errorf("term id %d out of range (table has %d nodes)", i, len(l.nodes))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for ; l.next <= i; l.next++ {
		t, err := decodeNode(l.ctx, l.next, &l.nodes[l.next], l.terms)
		if err != nil {
			return nil, err
		}
		l.terms[l.next] = t
	}
	return l.terms[i], nil
}
