// Package stack implements a small stack machine and a compiler from the
// IMP while-language of internal/imp. Together with internal/imp it forms
// the second language pair of this repository: the same language-parametric
// checker (internal/core) that validates LLVM→x86 instruction selection
// validates this compiler unchanged, demonstrating the paper's central
// claim.
package stack

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/imp"
	"repro/internal/smt"
)

// Op enumerates stack-machine opcodes.
type Op uint8

// Opcodes. Binary operators pop right then left and push the result.
const (
	OpPush  Op = iota // push Imm
	OpLoad            // push vars[Var]
	OpStore           // vars[Var] = pop
	OpAdd
	OpSub
	OpMul
	OpAnd
	OpOr
	OpXor
	OpLt // unsigned; pushes 0/1
	OpEq
	OpJz  // pop; jump to Label when zero
	OpJmp // jump to Label
	OpRet // pop return value, halt
)

var opNames = map[Op]string{
	OpPush: "push", OpLoad: "load", OpStore: "store", OpAdd: "add",
	OpSub: "sub", OpMul: "mul", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpLt: "lt", OpEq: "eq", OpJz: "jz", OpJmp: "jmp", OpRet: "ret",
}

// Instr is one stack-machine instruction.
type Instr struct {
	Op    Op
	Imm   uint32
	Var   string
	Label string
}

func (in Instr) String() string {
	switch in.Op {
	case OpPush:
		return fmt.Sprintf("push %d", in.Imm)
	case OpLoad, OpStore:
		return fmt.Sprintf("%s %s", opNames[in.Op], in.Var)
	case OpJz, OpJmp:
		return fmt.Sprintf("%s %s", opNames[in.Op], in.Label)
	}
	return opNames[in.Op]
}

// Block is a labeled straight-line instruction sequence ending in a
// control transfer. The stack is empty at every block boundary by
// construction of the compiler.
type Block struct {
	Label  string
	Instrs []Instr
}

// Program is a compiled stack program; Blocks[0] is the entry.
type Program struct {
	Blocks []*Block
}

// BlockByLabel returns the named block.
func (p *Program) BlockByLabel(l string) *Block {
	for _, b := range p.Blocks {
		if b.Label == l {
			return b
		}
	}
	return nil
}

func (p *Program) String() string {
	var b strings.Builder
	for _, blk := range p.Blocks {
		fmt.Fprintf(&b, "%s:\n", blk.Label)
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "  %s\n", in)
		}
	}
	return b.String()
}

// Options controls the compiler; the bug switches give the cross-language
// examples a miscompilation for KEQ to catch.
type Options struct {
	// BugSwapSub compiles `a - b` as `b - a`.
	BugSwapSub bool
	// BugSkipLoopStore drops the LAST store of every loop body — a
	// "forgotten writeback" bug.
	BugSkipLoopStore bool
}

// Compile lowers an IMP program via the same flattened CFG the IMP
// symbolic semantics use, so block labels (and hence cut locations)
// coincide on both sides.
func Compile(p *imp.Program, opts Options) *Program {
	out := &Program{}
	for _, ib := range imp.Flatten(p) {
		blk := &Block{Label: ib.Label}
		inLoop := strings.HasPrefix(ib.Label, "body")
		for i, a := range ib.Assigns {
			blk.Instrs = append(blk.Instrs, compileExpr(a.E, opts)...)
			if opts.BugSkipLoopStore && inLoop && i == len(ib.Assigns)-1 {
				// Forgotten writeback: discard instead of storing. The
				// value must still be popped to keep the stack balanced.
				blk.Instrs = append(blk.Instrs, Instr{Op: OpStore, Var: "!scratch"})
				continue
			}
			blk.Instrs = append(blk.Instrs, Instr{Op: OpStore, Var: a.Var})
		}
		switch ib.Term {
		case imp.TGoto:
			blk.Instrs = append(blk.Instrs, Instr{Op: OpJmp, Label: ib.Tgt})
		case imp.TBranch:
			blk.Instrs = append(blk.Instrs, compileExpr(ib.Cond, opts)...)
			blk.Instrs = append(blk.Instrs, Instr{Op: OpJz, Label: ib.TgtF})
			blk.Instrs = append(blk.Instrs, Instr{Op: OpJmp, Label: ib.Tgt})
		case imp.TRet:
			blk.Instrs = append(blk.Instrs, compileExpr(ib.Ret, opts)...)
			blk.Instrs = append(blk.Instrs, Instr{Op: OpRet})
		}
		out.Blocks = append(out.Blocks, blk)
	}
	return out
}

var binOpcode = map[string]Op{
	"+": OpAdd, "-": OpSub, "*": OpMul, "&": OpAnd, "|": OpOr, "^": OpXor,
	"<": OpLt, "==": OpEq,
}

func compileExpr(e *imp.Expr, opts Options) []Instr {
	switch {
	case e.IsIt:
		return []Instr{{Op: OpPush, Imm: e.Lit}}
	case e.Op == "":
		return []Instr{{Op: OpLoad, Var: e.Var}}
	}
	l := compileExpr(e.L, opts)
	r := compileExpr(e.R, opts)
	if e.Op == "-" && opts.BugSwapSub {
		l, r = r, l
	}
	return append(append(l, r...), Instr{Op: binOpcode[e.Op]})
}

// Eval runs the program concretely. Like imp.Eval it fails once the run
// enters loop-header blocks more than imp.MaxLoopTests times; every cycle
// of the compiled CFG passes through one, so that bounds the run.
func Eval(p *Program, inputs map[string]uint32) (uint32, error) {
	vars := make(map[string]uint32, len(inputs))
	for k, v := range inputs {
		vars[k] = v
	}
	var stk []uint32
	pop := func() uint32 {
		v := stk[len(stk)-1]
		stk = stk[:len(stk)-1]
		return v
	}
	blk := p.Blocks[0]
	idx := 0
	tests := 0
	for {
		if idx == 0 && imp.IsLoopHead(blk.Label) {
			if tests++; tests > imp.MaxLoopTests {
				return 0, fmt.Errorf("stack: loop budget exhausted")
			}
		}
		if idx >= len(blk.Instrs) {
			return 0, fmt.Errorf("stack: fell off block %s", blk.Label)
		}
		in := blk.Instrs[idx]
		switch in.Op {
		case OpPush:
			stk = append(stk, in.Imm)
		case OpLoad:
			stk = append(stk, vars[in.Var])
		case OpStore:
			vars[in.Var] = pop()
		case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpLt, OpEq:
			r := pop()
			l := pop()
			var v uint32
			switch in.Op {
			case OpAdd:
				v = l + r
			case OpSub:
				v = l - r
			case OpMul:
				v = l * r
			case OpAnd:
				v = l & r
			case OpOr:
				v = l | r
			case OpXor:
				v = l ^ r
			case OpLt:
				if l < r {
					v = 1
				}
			case OpEq:
				if l == r {
					v = 1
				}
			}
			stk = append(stk, v)
		case OpJz:
			if pop() == 0 {
				blk = p.BlockByLabel(in.Label)
				idx = 0
				continue
			}
		case OpJmp:
			blk = p.BlockByLabel(in.Label)
			idx = 0
			continue
		case OpRet:
			return pop(), nil
		}
		idx++
	}
}

// --- Symbolic semantics (core.Semantics) ---

// Sem is the stack machine's symbolic semantics.
type Sem struct {
	Ctx   *smt.Context
	Prog  *Program
	instN int
}

// NewSem builds the semantics for p.
func NewSem(ctx *smt.Context, p *Program) *Sem {
	return &Sem{Ctx: ctx, Prog: p}
}

type state struct {
	sem    *Sem
	instID int
	block  *Block
	idx    int
	stk    []*smt.Term
	vars   map[string]*smt.Term
	pc     *smt.Term
	final  bool
	ret    *smt.Term
}

var _ core.State = (*state)(nil)

// Loc implements core.State: block labels at block start (the compiler
// keeps IMP's labels, so cut locations coincide across the pair).
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

// MemTerm implements core.State (no memory).
func (s *state) MemTerm() *smt.Term { return nil }

// IsFinal implements core.State.
func (s *state) IsFinal() bool { return s.final }

// ErrorKind implements core.State.
func (s *state) ErrorKind() string { return "" }

// Observable implements core.State: variable names and "ret".
func (s *state) Observable(name string) (*smt.Term, error) {
	if name == "ret" {
		if s.ret == nil {
			return nil, fmt.Errorf("stack: no return value at %s", s.Loc())
		}
		return s.ret, nil
	}
	return s.read(name), nil
}

func (s *state) read(name string) *smt.Term {
	if t, ok := s.vars[name]; ok {
		return t
	}
	t := s.sem.Ctx.VarBV(fmt.Sprintf("stk!i%d!%s", s.instID, name), 32)
	s.vars[name] = t
	return t
}

func (s *state) clone() *state {
	vars := make(map[string]*smt.Term, len(s.vars))
	for k, v := range s.vars {
		vars[k] = v
	}
	stk := append([]*smt.Term(nil), s.stk...)
	n := *s
	n.vars = vars
	n.stk = stk
	return &n
}

// Instantiate implements core.Semantics.
func (sm *Sem) Instantiate(loc core.Location, presets map[string]*smt.Term, memT *smt.Term) (core.State, error) {
	sm.instN++
	b := sm.Prog.BlockByLabel(string(loc))
	if b == nil {
		return nil, fmt.Errorf("stack: cannot instantiate at %q", loc)
	}
	s := &state{sem: sm, instID: sm.instN, block: b, pc: sm.Ctx.True(),
		vars: make(map[string]*smt.Term, len(presets))}
	for k, v := range presets {
		s.vars[k] = v
	}
	return s, nil
}

// ObservableWidth implements core.Semantics.
func (sm *Sem) ObservableWidth(loc core.Location, name string) (uint8, error) {
	return 32, nil
}

// Step implements core.Semantics.
func (sm *Sem) Step(cs core.State) ([]core.State, error) {
	s, ok := cs.(*state)
	if !ok {
		return nil, fmt.Errorf("stack: foreign state %T", cs)
	}
	if s.final {
		return nil, nil
	}
	if s.idx >= len(s.block.Instrs) {
		return nil, fmt.Errorf("stack: fell off block %s", s.block.Label)
	}
	ctx := sm.Ctx
	in := s.block.Instrs[s.idx]
	n := s.clone()
	n.idx++
	pop := func() (*smt.Term, error) {
		if len(n.stk) == 0 {
			return nil, fmt.Errorf("stack: underflow at %s", s.Loc())
		}
		t := n.stk[len(n.stk)-1]
		n.stk = n.stk[:len(n.stk)-1]
		return t, nil
	}
	switch in.Op {
	case OpPush:
		n.stk = append(n.stk, ctx.BV(uint64(in.Imm), 32))
	case OpLoad:
		n.stk = append(n.stk, n.read(in.Var))
	case OpStore:
		v, err := pop()
		if err != nil {
			return nil, err
		}
		n.vars[in.Var] = v
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpLt, OpEq:
		r, err := pop()
		if err != nil {
			return nil, err
		}
		l, err := pop()
		if err != nil {
			return nil, err
		}
		var v *smt.Term
		switch in.Op {
		case OpAdd:
			v = ctx.Add(l, r)
		case OpSub:
			v = ctx.Sub(l, r)
		case OpMul:
			v = ctx.Mul(l, r)
		case OpAnd:
			v = ctx.And(l, r)
		case OpOr:
			v = ctx.Or(l, r)
		case OpXor:
			v = ctx.Xor(l, r)
		case OpLt:
			v = ctx.Ite(ctx.Ult(l, r), ctx.BV(1, 32), ctx.BV(0, 32))
		default:
			v = ctx.Ite(ctx.Eq(l, r), ctx.BV(1, 32), ctx.BV(0, 32))
		}
		n.stk = append(n.stk, v)
	case OpJz:
		v, err := pop()
		if err != nil {
			return nil, err
		}
		zero := ctx.Eq(v, ctx.BV(0, 32))
		nz := n // taken when zero
		nz.pc = ctx.AndB(s.pc, zero)
		nz.block = sm.Prog.BlockByLabel(in.Label)
		if nz.block == nil {
			return nil, fmt.Errorf("stack: jz to unknown label %s", in.Label)
		}
		nz.idx = 0
		fall := s.clone()
		fall.stk = append([]*smt.Term(nil), nz.stk...)
		fall.pc = ctx.AndB(s.pc, ctx.Not(zero))
		fall.idx = s.idx + 1
		return []core.State{nz, fall}, nil
	case OpJmp:
		n.block = sm.Prog.BlockByLabel(in.Label)
		if n.block == nil {
			return nil, fmt.Errorf("stack: jmp to unknown label %s", in.Label)
		}
		n.idx = 0
	case OpRet:
		v, err := pop()
		if err != nil {
			return nil, err
		}
		n.final = true
		n.ret = v
	}
	return []core.State{n}, nil
}

// SyncPoints builds the synchronization relation for an IMP→stack
// translation instance: entry (inputs equal), every loop head (all program
// variables equal), and exit (return values equal). The labels coincide on
// both sides by construction of the compiler.
func SyncPoints(p *imp.Program) []*core.SyncPoint {
	vars := p.Vars()
	varCons := make([]core.Constraint, len(vars))
	for i, v := range vars {
		varCons[i] = core.Constraint{Left: v, Right: v}
	}
	inCons := make([]core.Constraint, len(p.Inputs))
	for i, v := range p.Inputs {
		inCons[i] = core.Constraint{Left: v, Right: v}
	}
	points := []*core.SyncPoint{
		{ID: "p0", LocLeft: "entry", LocRight: "entry", Constraints: inCons},
		{ID: "pexit", LocLeft: "exit", LocRight: "exit", Exiting: true,
			Constraints: []core.Constraint{{Left: "ret", Right: "ret"}}},
	}
	for i, loc := range imp.LoopLocs(p) {
		points = append(points, &core.SyncPoint{
			ID: fmt.Sprintf("p_loop%d", i+1), LocLeft: loc, LocRight: loc,
			Constraints: varCons,
		})
	}
	return points
}
