package term

import "fmt"

// Assign is a concrete assignment to the free variables of a term, used by
// the concrete evaluator (for property tests and model reporting).
type Assign struct {
	BV   map[string]uint64
	Bool map[string]bool
	// Mem maps a memory variable name to its byte contents; absent
	// addresses read as zero.
	Mem map[string]map[uint64]uint8
}

// NewAssign returns an empty assignment.
func NewAssign() *Assign {
	return &Assign{
		BV:   make(map[string]uint64),
		Bool: make(map[string]bool),
		Mem:  make(map[string]map[uint64]uint8),
	}
}

// memVal is an evaluated memory: a base variable plus an overlay of
// evaluated stores.
type memVal struct {
	base    string
	overlay map[uint64]uint8
}

func (a *Assign) memRead(m memVal, addr uint64) uint8 {
	if v, ok := m.overlay[addr]; ok {
		return v
	}
	return a.Mem[m.base][addr]
}

// EvalBV evaluates a BV-sorted term to its numeric value under a.
func (a *Assign) EvalBV(t *Term) (uint64, error) { return NewEvaluator(a).EvalBV(t) }

// EvalBool evaluates a Bool-sorted term under a.
func (a *Assign) EvalBool(t *Term) (bool, error) { return NewEvaluator(a).EvalBool(t) }

// Evaluator evaluates terms under one assignment and keeps each node's
// value across calls, so evaluating K roots of one shared DAG of N nodes
// costs O(N) in all rather than O(K·N). The assignment must not change
// while the evaluator is in use.
type Evaluator struct {
	a    *Assign
	memo map[*Term]interface{}
}

// NewEvaluator returns an evaluator under a with an empty memo.
func NewEvaluator(a *Assign) *Evaluator {
	return &Evaluator{a: a, memo: make(map[*Term]interface{})}
}

// Evaluated reports how many distinct nodes e has evaluated.
func (e *Evaluator) Evaluated() int { return len(e.memo) }

// EvalBV evaluates a BV-sorted term to its numeric value.
func (e *Evaluator) EvalBV(t *Term) (uint64, error) {
	switch t.SortKind() {
	case SortBV:
	default:
		return 0, fmt.Errorf("smt: EvalBV on non-BV term %v", t)
	}
	v, err := e.eval(t)
	if err != nil {
		return 0, err
	}
	return v.(uint64), nil
}

// EvalBool evaluates a Bool-sorted term.
func (e *Evaluator) EvalBool(t *Term) (bool, error) {
	if t.SortKind() != SortBool {
		return false, fmt.Errorf("smt: EvalBool on non-Bool term %v", t)
	}
	v, err := e.eval(t)
	if err != nil {
		return false, err
	}
	return v.(bool), nil
}

// eval evaluates the DAG under root in post order — arguments left to
// right, each node not yet in the memo once — so the first node to fail
// is the leftmost deepest one. It keeps an explicit stack: terms decoded
// from certificates are untrusted, and a chain a million levels deep
// must not overflow the goroutine stack.
func (e *Evaluator) eval(root *Term) (interface{}, error) {
	type frame struct {
		t    *Term
		next int // arguments pushed so far
	}
	var stack []frame
	var vals []interface{} // evaluated arguments of the open frames, in order
	push := func(t *Term) {
		if v, ok := e.memo[t]; ok {
			vals = append(vals, v)
		} else {
			stack = append(stack, frame{t: t})
		}
	}
	push(root)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.t.Args) {
			f.next++
			push(f.t.Args[f.next-1])
			continue
		}
		t := f.t
		stack = stack[:len(stack)-1]
		base := len(vals) - len(t.Args)
		v, err := e.a.apply(t, vals[base:])
		if err != nil {
			return nil, err
		}
		e.memo[t] = v
		vals = append(vals[:base], v)
	}
	return vals[0], nil
}

// apply evaluates one node from the values of its arguments.
func (a *Assign) apply(t *Term, args []interface{}) (interface{}, error) {
	switch t.Kind {
	case KConstBV:
		return t.Val, nil
	case KConstBool:
		return t.Val == 1, nil
	case KVarBV:
		return a.BV[t.Name] & mask(t.Width), nil
	case KVarBool:
		return a.Bool[t.Name], nil
	case KVarMem:
		return memVal{base: t.Name, overlay: map[uint64]uint8{}}, nil
	}

	bv := func(i int) uint64 { return args[i].(uint64) }

	switch t.Kind {
	case KAdd:
		return (bv(0) + bv(1)) & mask(t.Width), nil
	case KSub:
		return (bv(0) - bv(1)) & mask(t.Width), nil
	case KMul:
		return (bv(0) * bv(1)) & mask(t.Width), nil
	case KUDiv:
		if bv(1) == 0 {
			return mask(t.Width), nil
		}
		return bv(0) / bv(1), nil
	case KURem:
		if bv(1) == 0 {
			return bv(0), nil
		}
		return bv(0) % bv(1), nil
	case KNeg:
		return (-bv(0)) & mask(t.Width), nil
	case KAnd:
		return bv(0) & bv(1), nil
	case KOr:
		return bv(0) | bv(1), nil
	case KXor:
		return bv(0) ^ bv(1), nil
	case KNot:
		return ^bv(0) & mask(t.Width), nil
	case KShl:
		if bv(1) >= uint64(t.Width) {
			return uint64(0), nil
		}
		return (bv(0) << bv(1)) & mask(t.Width), nil
	case KLShr:
		if bv(1) >= uint64(t.Width) {
			return uint64(0), nil
		}
		return bv(0) >> bv(1), nil
	case KAShr:
		sh := bv(1)
		sv := int64(sextVal(bv(0), t.Args[0].Width))
		if sh >= 63 {
			sh = 63
		}
		return uint64(sv>>sh) & mask(t.Width), nil
	case KConcat:
		return (bv(0)<<t.Args[1].Width | bv(1)) & mask(t.Width), nil
	case KExtract:
		return (bv(0) >> t.Lo) & mask(t.Width), nil
	case KZExt:
		return bv(0), nil
	case KSExt:
		return sextVal(bv(0), t.Args[0].Width) & mask(t.Width), nil
	case KIte:
		if args[0].(bool) {
			return args[1], nil
		}
		return args[2], nil
	case KEq:
		switch t.Args[0].SortKind() {
		case SortBV:
			return bv(0) == bv(1), nil
		case SortBool:
			return args[0].(bool) == args[1].(bool), nil
		case SortMem:
			m1 := args[0].(memVal)
			m2 := args[1].(memVal)
			if m1.base != m2.base {
				return nil, fmt.Errorf("smt: eval of memory equality with different bases %q, %q", m1.base, m2.base)
			}
			keys := map[uint64]struct{}{}
			for k := range m1.overlay {
				keys[k] = struct{}{}
			}
			for k := range m2.overlay {
				keys[k] = struct{}{}
			}
			for k := range keys {
				if a.memRead(m1, k) != a.memRead(m2, k) {
					return false, nil
				}
			}
			return true, nil
		}
	case KUlt:
		return bv(0) < bv(1), nil
	case KUle:
		return bv(0) <= bv(1), nil
	case KSlt:
		w := t.Args[0].Width
		return int64(sextVal(bv(0), w)) < int64(sextVal(bv(1), w)), nil
	case KSle:
		w := t.Args[0].Width
		return int64(sextVal(bv(0), w)) <= int64(sextVal(bv(1), w)), nil
	case KBAnd:
		return args[0].(bool) && args[1].(bool), nil
	case KBOr:
		return args[0].(bool) || args[1].(bool), nil
	case KBNot:
		return !args[0].(bool), nil
	case KSelect:
		m := args[0].(memVal)
		return uint64(a.memRead(m, bv(1))), nil
	case KStore:
		m := args[0].(memVal)
		ov := make(map[uint64]uint8, len(m.overlay)+1)
		for k, v := range m.overlay {
			ov[k] = v
		}
		ov[bv(1)] = uint8(bv(2))
		return memVal{base: m.base, overlay: ov}, nil
	}
	return nil, fmt.Errorf("smt: eval of unsupported kind %v", kindNames[t.Kind])
}
