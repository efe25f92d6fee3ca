// Package imp implements a small imperative while-language — a second,
// entirely different source language used to demonstrate that the KEQ
// checker in internal/core is genuinely language-parametric (the paper's
// headline claim): the same checker that validates LLVM→x86 instruction
// selection validates the IMP→stack-machine compiler in this package,
// with no changes.
//
// Syntax (one statement per line):
//
//	x := <expr>
//	if <expr> { ... } else { ... }
//	while <expr> { ... }
//	return <expr>
//
// Expressions: integer literals, variables, and binary operators
// + - * & | ^ < (unsigned) == over 32-bit values; comparisons yield 0/1.
package imp

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is an expression tree node.
type Expr struct {
	Op   string // "" for leaf; else "+", "-", "*", "&", "|", "^", "<", "=="
	Var  string // leaf variable
	Lit  uint32 // leaf literal
	IsIt bool   // leaf is a literal
	L, R *Expr
}

// Lit builds a literal expression.
func Lit(v uint32) *Expr { return &Expr{IsIt: true, Lit: v} }

// Var builds a variable reference.
func Var(name string) *Expr { return &Expr{Var: name} }

// Bin builds a binary expression.
func Bin(op string, l, r *Expr) *Expr { return &Expr{Op: op, L: l, R: r} }

func (e *Expr) String() string {
	switch {
	case e.IsIt:
		return strconv.FormatUint(uint64(e.Lit), 10)
	case e.Op == "":
		return e.Var
	}
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// StmtKind discriminates statements.
type StmtKind uint8

// Statement kinds.
const (
	SAssign StmtKind = iota
	SIf
	SWhile
	SReturn
)

// Stmt is a statement node. While statements carry a stable ID used as
// the loop-head cut location.
type Stmt struct {
	Kind   StmtKind
	Var    string
	E      *Expr
	Then   []*Stmt
	Else   []*Stmt
	Body   []*Stmt
	LoopID int
}

// Program is a function: named inputs and a statement list ending (on
// every path) in return.
type Program struct {
	Inputs []string
	Body   []*Stmt
	nLoops int
}

// NumLoops returns the number of while statements.
func (p *Program) NumLoops() int { return p.nLoops }

// Vars returns all variable names (inputs and assigned), sorted.
func (p *Program) Vars() []string {
	set := map[string]bool{}
	for _, in := range p.Inputs {
		set[in] = true
	}
	var walk func(ss []*Stmt)
	walk = func(ss []*Stmt) {
		for _, s := range ss {
			if s.Kind == SAssign {
				set[s.Var] = true
			}
			walk(s.Then)
			walk(s.Else)
			walk(s.Body)
		}
	}
	walk(p.Body)
	var out []string
	for v := range set {
		out = append(out, v)
	}
	sortStrings(out)
	return out
}

func sortStrings(xs []string) {
	for i := 0; i < len(xs); i++ {
		for j := i + 1; j < len(xs); j++ {
			if xs[j] < xs[i] {
				xs[i], xs[j] = xs[j], xs[i]
			}
		}
	}
}

// Parse parses a program. The first line must be "input x, y, ...", or
// "input" for none.
func Parse(src string) (*Program, error) {
	lines := []string{}
	for _, l := range strings.Split(src, "\n") {
		l = strings.TrimSpace(l)
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		lines = append(lines, l)
	}
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "input") {
		return nil, fmt.Errorf("imp: program must start with an input line")
	}
	p := &Program{}
	rest := strings.TrimSpace(strings.TrimPrefix(lines[0], "input"))
	if rest != "" {
		for _, v := range strings.Split(rest, ",") {
			p.Inputs = append(p.Inputs, strings.TrimSpace(v))
		}
	}
	body, pos, err := p.parseBlock(lines, 1)
	if err != nil {
		return nil, err
	}
	if pos != len(lines) {
		return nil, fmt.Errorf("imp: trailing input at line %d: %q", pos+1, lines[pos])
	}
	p.Body = body
	return p, nil
}

func (p *Program) parseBlock(lines []string, pos int) ([]*Stmt, int, error) {
	var out []*Stmt
	for pos < len(lines) {
		l := lines[pos]
		switch {
		case l == "}":
			return out, pos, nil
		case strings.HasPrefix(l, "} else {"):
			return out, pos, nil
		case strings.HasPrefix(l, "return "):
			e, err := parseExpr(strings.TrimPrefix(l, "return "))
			if err != nil {
				return nil, 0, err
			}
			out = append(out, &Stmt{Kind: SReturn, E: e})
			pos++
		case strings.HasPrefix(l, "if ") && strings.HasSuffix(l, "{"):
			cond, err := parseExpr(strings.TrimSuffix(strings.TrimPrefix(l, "if "), "{"))
			if err != nil {
				return nil, 0, err
			}
			thenB, p2, err := p.parseBlock(lines, pos+1)
			if err != nil {
				return nil, 0, err
			}
			st := &Stmt{Kind: SIf, E: cond, Then: thenB}
			if p2 < len(lines) && lines[p2] == "} else {" {
				elseB, p3, err := p.parseBlock(lines, p2+1)
				if err != nil {
					return nil, 0, err
				}
				st.Else = elseB
				p2 = p3
			}
			if p2 >= len(lines) || lines[p2] != "}" {
				return nil, 0, fmt.Errorf("imp: unterminated if")
			}
			out = append(out, st)
			pos = p2 + 1
		case strings.HasPrefix(l, "while ") && strings.HasSuffix(l, "{"):
			cond, err := parseExpr(strings.TrimSuffix(strings.TrimPrefix(l, "while "), "{"))
			if err != nil {
				return nil, 0, err
			}
			body, p2, err := p.parseBlock(lines, pos+1)
			if err != nil {
				return nil, 0, err
			}
			if p2 >= len(lines) || lines[p2] != "}" {
				return nil, 0, fmt.Errorf("imp: unterminated while")
			}
			p.nLoops++
			out = append(out, &Stmt{Kind: SWhile, E: cond, Body: body, LoopID: p.nLoops})
			pos = p2 + 1
		case strings.Contains(l, ":="):
			parts := strings.SplitN(l, ":=", 2)
			e, err := parseExpr(parts[1])
			if err != nil {
				return nil, 0, err
			}
			out = append(out, &Stmt{Kind: SAssign, Var: strings.TrimSpace(parts[0]), E: e})
			pos++
		default:
			return nil, 0, fmt.Errorf("imp: cannot parse line %q", l)
		}
	}
	return out, pos, nil
}

// parseExpr parses fully parenthesized binary expressions plus bare
// leaves: "(a + (b * 2))", "x", "7".
func parseExpr(s string) (*Expr, error) {
	s = strings.TrimSpace(s)
	e, rest, err := parseExprAt(s)
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(rest) != "" {
		return nil, fmt.Errorf("imp: trailing expression input %q", rest)
	}
	return e, nil
}

func parseExprAt(s string) (*Expr, string, error) {
	s = strings.TrimLeft(s, " ")
	if s == "" {
		return nil, "", fmt.Errorf("imp: empty expression")
	}
	if s[0] == '(' {
		l, rest, err := parseExprAt(s[1:])
		if err != nil {
			return nil, "", err
		}
		rest = strings.TrimLeft(rest, " ")
		var op string
		for _, cand := range []string{"==", "+", "-", "*", "&", "|", "^", "<"} {
			if strings.HasPrefix(rest, cand) {
				op = cand
				break
			}
		}
		if op == "" {
			return nil, "", fmt.Errorf("imp: expected operator at %q", rest)
		}
		r, rest2, err := parseExprAt(rest[len(op):])
		if err != nil {
			return nil, "", err
		}
		rest2 = strings.TrimLeft(rest2, " ")
		if !strings.HasPrefix(rest2, ")") {
			return nil, "", fmt.Errorf("imp: expected ')' at %q", rest2)
		}
		return Bin(op, l, r), rest2[1:], nil
	}
	// Leaf: literal or identifier.
	i := 0
	for i < len(s) && s[i] != ' ' && s[i] != ')' && !strings.ContainsRune("+-*&|^<=", rune(s[i])) {
		i++
	}
	tok := s[:i]
	if tok == "" {
		return nil, "", fmt.Errorf("imp: bad expression at %q", s)
	}
	if tok[0] >= '0' && tok[0] <= '9' {
		v, err := strconv.ParseUint(tok, 10, 32)
		if err != nil {
			return nil, "", fmt.Errorf("imp: bad literal %q", tok)
		}
		return Lit(uint32(v)), s[i:], nil
	}
	return Var(tok), s[i:], nil
}

// MaxLoopTests bounds a concrete run by its loop-condition tests, summed
// over every loop. Each test is one entry into a "loop:<id>" block of the
// flattened CFG, so the stack machine's Eval counts loop-head entries
// against the same bound and the two interpreters give up on exactly the
// same inputs.
const MaxLoopTests = 1 << 20

// Eval runs the program concretely on the given inputs. It fails once the
// run needs more than MaxLoopTests loop-condition tests.
func Eval(p *Program, inputs map[string]uint32) (uint32, error) {
	env := make(map[string]uint32, len(inputs))
	for k, v := range inputs {
		env[k] = v
	}
	tests := 0
	ret, done, err := evalBlock(p.Body, env, &tests)
	if err != nil {
		return 0, err
	}
	if !done {
		return 0, nil // implicit `return 0`, matching the flattened CFG
	}
	return ret, nil
}

func evalBlock(ss []*Stmt, env map[string]uint32, tests *int) (uint32, bool, error) {
	for _, s := range ss {
		switch s.Kind {
		case SAssign:
			env[s.Var] = evalExpr(s.E, env)
		case SReturn:
			return evalExpr(s.E, env), true, nil
		case SIf:
			var branch []*Stmt
			if evalExpr(s.E, env) != 0 {
				branch = s.Then
			} else {
				branch = s.Else
			}
			ret, done, err := evalBlock(branch, env, tests)
			if err != nil || done {
				return ret, done, err
			}
		case SWhile:
			for {
				if *tests++; *tests > MaxLoopTests {
					return 0, false, fmt.Errorf("imp: loop budget exhausted")
				}
				if evalExpr(s.E, env) == 0 {
					break
				}
				ret, done, err := evalBlock(s.Body, env, tests)
				if err != nil || done {
					return ret, done, err
				}
			}
		}
	}
	return 0, false, nil
}

func evalExpr(e *Expr, env map[string]uint32) uint32 {
	switch {
	case e.IsIt:
		return e.Lit
	case e.Op == "":
		return env[e.Var]
	}
	l := evalExpr(e.L, env)
	r := evalExpr(e.R, env)
	switch e.Op {
	case "+":
		return l + r
	case "-":
		return l - r
	case "*":
		return l * r
	case "&":
		return l & r
	case "|":
		return l | r
	case "^":
		return l ^ r
	case "<":
		if l < r {
			return 1
		}
		return 0
	case "==":
		if l == r {
			return 1
		}
		return 0
	}
	panic("imp: bad operator " + e.Op)
}
