package proof

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/term"
)

// TermTable is the run-wide shared term table of a proof directory: one
// append-only, mutex-striped intern table serving every worker of a run.
// Certificates reference nodes by global id and the directory carries a
// single TERMS.jsonl segment, one TNode per line in id order.
//
// Nodes are keyed structurally — kind, width, value, name, and the
// global ids of the children — never by *term.Term pointer. Pointer
// keying would pin every recorded term for the whole run (exactly the
// O(run) memory this refactor removes) and would break once term
// contexts recycle their node storage between functions. Structural
// keying also dedups across the per-function term contexts, which is
// where most of the run-level sharing comes from: child ids are assigned
// before their parents, so ids are topological and a reader can
// materialize the table in one forward pass.
//
// Lookups take one stripe lock (the idiom of the VC cache in
// internal/smt); id assignment and row emission take a second global
// lock so rows land in the segment in id order. Per-recorder pointer
// memos (see Recorder) keep the common case — re-encoding a term the
// function already encoded — entirely lock-free.
type TermTable struct {
	shards [tableShards]tableShard

	mu  sync.Mutex // id assignment + row emission, in id order
	n   int32
	w   io.Writer // row sink; nil for an in-memory table
	buf []byte
	err error
}

const tableShards = 64

type tableShard struct {
	mu sync.Mutex
	m  map[nodeKey]int32
}

// nodeKey is the structural identity of one node. Absent children are
// -1: 0 is a valid global id.
type nodeKey struct {
	kind       term.Kind
	width      uint8
	hi, lo     uint8
	val        uint64
	name       string
	a0, a1, a2 int32
}

func (k *nodeKey) shard() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(uint64(k.kind))
	mix(uint64(k.width) | uint64(k.hi)<<8 | uint64(k.lo)<<16)
	mix(k.val)
	for i := 0; i < len(k.name); i++ {
		h ^= uint64(k.name[i])
		h *= prime
	}
	mix(uint64(uint32(k.a0)))
	mix(uint64(uint32(k.a1)))
	mix(uint64(uint32(k.a2)))
	return h
}

// NewTermTable returns an empty shared table writing rows to w (which
// may be nil for an in-memory table, used by tests).
func NewTermTable(w io.Writer) *TermTable {
	tt := &TermTable{w: w}
	for i := range tt.shards {
		tt.shards[i].m = make(map[nodeKey]int32)
	}
	return tt
}

// Len returns the number of interned nodes.
func (tt *TermTable) Len() int {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return int(tt.n)
}

// Err returns the first row-emission error, if any.
func (tt *TermTable) Err() error {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return tt.err
}

// Intern interns t (and its subterms) and returns its global id. memo is
// the caller's private pointer memo — within one term context,
// hash-consing makes structurally equal terms pointer-equal, so the memo
// short-circuits both the walk and the locks.
func (tt *TermTable) Intern(t *term.Term, memo map[*term.Term]int32) int {
	if id, ok := memo[t]; ok {
		return int(id)
	}
	type frame struct {
		t    *term.Term
		next int
	}
	stack := []frame{{t: t}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.t.Args) {
			arg := f.t.Args[f.next]
			f.next++
			if _, ok := memo[arg]; !ok {
				stack = append(stack, frame{t: arg})
			}
			continue
		}
		if _, ok := memo[f.t]; !ok {
			memo[f.t] = tt.intern(f.t, memo)
		}
		stack = stack[:len(stack)-1]
	}
	return int(memo[t])
}

// intern resolves one node whose children are already in memo.
func (tt *TermTable) intern(t *term.Term, memo map[*term.Term]int32) int32 {
	k := nodeKey{kind: t.Kind, width: t.Width, hi: t.Hi, lo: t.Lo, val: t.Val, name: t.Name,
		a0: -1, a1: -1, a2: -1}
	for i, a := range t.Args {
		switch i {
		case 0:
			k.a0 = memo[a]
		case 1:
			k.a1 = memo[a]
		case 2:
			k.a2 = memo[a]
		default:
			panic("proof: term with more than 3 args")
		}
	}
	sh := &tt.shards[k.shard()%tableShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok := sh.m[k]; ok {
		return id
	}
	tt.mu.Lock()
	id := tt.n
	tt.n++
	if tt.w != nil && tt.err == nil {
		tt.err = tt.emitRow(t, &k)
	}
	tt.mu.Unlock()
	sh.m[k] = id
	return id
}

// emitRow appends the TNode JSON line for a freshly assigned id. Called
// with tt.mu held, so rows are written in id order.
func (tt *TermTable) emitRow(t *term.Term, k *nodeKey) error {
	n := TNode{
		K:  term.KindName(t.Kind),
		W:  t.Width,
		N:  t.Name,
		Hi: t.Hi,
		Lo: t.Lo,
	}
	if t.Val != 0 {
		n.V = fmt.Sprintf("%d", t.Val)
	}
	for i := 0; i < len(t.Args); i++ {
		switch i {
		case 0:
			n.A = append(n.A, int(k.a0))
		case 1:
			n.A = append(n.A, int(k.a1))
		case 2:
			n.A = append(n.A, int(k.a2))
		}
	}
	data, err := json.Marshal(&n)
	if err != nil {
		return err
	}
	tt.buf = append(append(tt.buf[:0], data...), '\n')
	_, err = tt.w.Write(tt.buf)
	return err
}
