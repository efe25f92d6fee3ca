package imp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/smt"
)

// This file gives IMP a symbolic semantics implementing core.Semantics.
// The structured program is flattened once into an internal CFG whose
// loop-header blocks carry the cut locations "loop:<id>"; the checker in
// internal/core then treats IMP exactly like any other language.

// TermKind discriminates block terminators of the flattened CFG.
type TermKind uint8

const (
	// TGoto is an unconditional transfer to Tgt.
	TGoto TermKind = iota
	// TBranch transfers to Tgt when Cond is nonzero, else to TgtF.
	TBranch
	// TRet returns Ret.
	TRet
)

// Block is one block of the flattened CFG (used both by the symbolic
// semantics here and by the IMP→stack compiler in internal/stack).
type Block struct {
	Label   string
	Assigns []*Stmt // SAssign only
	Term    TermKind
	Cond    *Expr  // TBranch
	Ret     *Expr  // TRet
	Tgt     string // TGoto / TBranch true target
	TgtF    string // TBranch false target
}

// flatten lowers the structured body into labeled blocks. Loop headers get
// the label "loop:<id>".
type flattener struct {
	blocks []*Block
	n      int
}

func (f *flattener) fresh(stem string) string {
	f.n++
	return fmt.Sprintf("%s.%d", stem, f.n)
}

func (f *flattener) add(b *Block) *Block {
	f.blocks = append(f.blocks, b)
	return b
}

// Flatten builds the internal CFG (exported for the stack compiler, which
// uses the same block structure to stay in sync with the cut locations).
func Flatten(p *Program) []*Block {
	f := &flattener{}
	entry := f.add(&Block{Label: "entry"})
	f.lower(p.Body, entry, "")
	return f.blocks
}

// lower emits ss into cur; after ss, control continues to next (or the
// function must have returned when next == ""). Returns the block that
// needs a terminator to next (nil if all paths returned).
func (f *flattener) lower(ss []*Stmt, cur *Block, next string) {
	for i, s := range ss {
		switch s.Kind {
		case SAssign:
			cur.Assigns = append(cur.Assigns, s)
		case SReturn:
			cur.Term = TRet
			cur.Ret = s.E
			return
		case SIf:
			rest := f.fresh("join")
			thenB := f.add(&Block{Label: f.fresh("then")})
			elseB := f.add(&Block{Label: f.fresh("else")})
			cur.Term = TBranch
			cur.Cond = s.E
			cur.Tgt = thenB.Label
			cur.TgtF = elseB.Label
			f.lower(s.Then, thenB, rest)
			f.lower(s.Else, elseB, rest)
			cont := f.add(&Block{Label: rest})
			f.lower(ss[i+1:], cont, next)
			return
		case SWhile:
			head := f.add(&Block{Label: fmt.Sprintf("loop:%d", s.LoopID)})
			body := f.add(&Block{Label: f.fresh("body")})
			rest := f.fresh("done")
			cur.Term = TGoto
			cur.Tgt = head.Label
			head.Term = TBranch
			head.Cond = s.E
			head.Tgt = body.Label
			head.TgtF = rest
			f.lower(s.Body, body, head.Label)
			cont := f.add(&Block{Label: rest})
			f.lower(ss[i+1:], cont, next)
			return
		}
	}
	// Fell off the statement list: continue to next.
	if next == "" {
		// No return on this path; make it explicit (returns 0).
		cur.Term = TRet
		cur.Ret = Lit(0)
		return
	}
	cur.Term = TGoto
	cur.Tgt = next
}

// Sem is IMP's symbolic semantics.
type Sem struct {
	Ctx    *smt.Context
	Prog   *Program
	blocks map[string]*Block
	instN  int
}

// NewSem builds the semantics for p.
func NewSem(ctx *smt.Context, p *Program) *Sem {
	bs := Flatten(p)
	m := make(map[string]*Block, len(bs))
	for _, b := range bs {
		m[b.Label] = b
	}
	return &Sem{Ctx: ctx, Prog: p, blocks: m}
}

type state struct {
	sem    *Sem
	instID int
	block  *Block
	idx    int
	env    map[string]*smt.Term
	pc     *smt.Term
	final  bool
	ret    *smt.Term
}

var _ core.State = (*state)(nil)

// Loc implements core.State. Cut locations: "entry", "loop:<id>", "exit".
func (s *state) Loc() core.Location {
	if s.final {
		return "exit"
	}
	if s.idx == 0 {
		return core.Location(s.block.Label)
	}
	return core.Location(fmt.Sprintf("at:%s:%d", s.block.Label, s.idx))
}

// PathCond implements core.State.
func (s *state) PathCond() *smt.Term { return s.pc }

// MemTerm implements core.State (IMP has no memory).
func (s *state) MemTerm() *smt.Term { return nil }

// IsFinal implements core.State.
func (s *state) IsFinal() bool { return s.final }

// ErrorKind implements core.State (IMP has no undefined behavior).
func (s *state) ErrorKind() string { return "" }

// Observable implements core.State: variable names and "ret".
func (s *state) Observable(name string) (*smt.Term, error) {
	if name == "ret" {
		if s.ret == nil {
			return nil, fmt.Errorf("imp: no return value at %s", s.Loc())
		}
		return s.ret, nil
	}
	return s.read(name), nil
}

func (s *state) read(name string) *smt.Term {
	if t, ok := s.env[name]; ok {
		return t
	}
	t := s.sem.Ctx.VarBV(fmt.Sprintf("imp!i%d!%s", s.instID, name), 32)
	s.env[name] = t
	return t
}

func (s *state) clone() *state {
	env := make(map[string]*smt.Term, len(s.env))
	for k, v := range s.env {
		env[k] = v
	}
	n := *s
	n.env = env
	return &n
}

// Instantiate implements core.Semantics.
func (sm *Sem) Instantiate(loc core.Location, presets map[string]*smt.Term, memT *smt.Term) (core.State, error) {
	sm.instN++
	b, ok := sm.blocks[string(loc)]
	if !ok {
		return nil, fmt.Errorf("imp: cannot instantiate at %q", loc)
	}
	s := &state{sem: sm, instID: sm.instN, block: b, pc: sm.Ctx.True(),
		env: make(map[string]*smt.Term, len(presets))}
	for k, v := range presets {
		s.env[k] = v
	}
	return s, nil
}

// ObservableWidth implements core.Semantics (all IMP values are 32-bit).
func (sm *Sem) ObservableWidth(loc core.Location, name string) (uint8, error) {
	return 32, nil
}

// Step implements core.Semantics.
func (sm *Sem) Step(cs core.State) ([]core.State, error) {
	s, ok := cs.(*state)
	if !ok {
		return nil, fmt.Errorf("imp: foreign state %T", cs)
	}
	if s.final {
		return nil, nil
	}
	ctx := sm.Ctx
	if s.idx < len(s.block.Assigns) {
		a := s.block.Assigns[s.idx]
		n := s.clone()
		n.env[a.Var] = s.symExpr(a.E)
		n.idx++
		return []core.State{n}, nil
	}
	switch s.block.Term {
	case TGoto:
		n := s.clone()
		n.block = sm.blocks[s.block.Tgt]
		n.idx = 0
		return []core.State{n}, nil
	case TBranch:
		c := ctx.Not(ctx.Eq(s.symExpr(s.block.Cond), ctx.BV(0, 32)))
		nT := s.clone()
		nT.pc = ctx.AndB(s.pc, c)
		nT.block = sm.blocks[s.block.Tgt]
		nT.idx = 0
		nF := s.clone()
		nF.pc = ctx.AndB(s.pc, ctx.Not(c))
		nF.block = sm.blocks[s.block.TgtF]
		nF.idx = 0
		return []core.State{nT, nF}, nil
	case TRet:
		n := s.clone()
		n.final = true
		n.ret = s.symExpr(s.block.Ret)
		return []core.State{n}, nil
	}
	return nil, fmt.Errorf("imp: stuck state at %s", s.Loc())
}

func (s *state) symExpr(e *Expr) *smt.Term {
	ctx := s.sem.Ctx
	switch {
	case e.IsIt:
		return ctx.BV(uint64(e.Lit), 32)
	case e.Op == "":
		return s.read(e.Var)
	}
	l := s.symExpr(e.L)
	r := s.symExpr(e.R)
	switch e.Op {
	case "+":
		return ctx.Add(l, r)
	case "-":
		return ctx.Sub(l, r)
	case "*":
		return ctx.Mul(l, r)
	case "&":
		return ctx.And(l, r)
	case "|":
		return ctx.Or(l, r)
	case "^":
		return ctx.Xor(l, r)
	case "<":
		return ctx.Ite(ctx.Ult(l, r), ctx.BV(1, 32), ctx.BV(0, 32))
	case "==":
		return ctx.Ite(ctx.Eq(l, r), ctx.BV(1, 32), ctx.BV(0, 32))
	}
	panic("imp: bad operator " + e.Op)
}

// IsLoopHead reports whether label names a loop-header block of the
// flattened CFG.
func IsLoopHead(label string) bool { return strings.HasPrefix(label, "loop:") }

// LoopLocs returns the cut locations of all loops, for sync-point
// generation.
func LoopLocs(p *Program) []core.Location {
	out := make([]core.Location, 0, p.nLoops)
	for i := 1; i <= p.nLoops; i++ {
		out = append(out, core.Location(fmt.Sprintf("loop:%d", i)))
	}
	return out
}
