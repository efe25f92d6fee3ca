package proof

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/term"
)

// Term segments and certificate streams are untrusted input to the
// checker: a crafted proof directory must be rejected with an error,
// never crash proofcheck or the store scrubber.

// evalAll decodes the first n nodes of l and evaluates each one as the
// checker would, so a node that decodes must also evaluate without a
// panic. It stops at the first node that fails to decode and returns
// that error. A bitvector value wider than its term is an evaluator bug.
func evalAll(t *testing.T, l *termLoader, n int) error {
	a := term.NewAssign()
	for i := 0; i < n; i++ {
		x, err := l.Term(i)
		if err != nil {
			return err
		}
		switch x.Kind { // give variables nonzero values
		case term.KVarBV:
			a.BV[x.Name] = 0x9e3779b97f4a7c15 * uint64(i+1)
		case term.KVarBool:
			a.Bool[x.Name] = i%2 == 0
		}
		switch x.SortKind() {
		case term.SortBool:
			_, _ = a.EvalBool(x) // an error is a rejection, not a failure
		case term.SortBV:
			v, err := a.EvalBV(x)
			if err == nil && x.Width < 64 && v>>x.Width != 0 {
				t.Errorf("node %d: %v evaluates to %d, wider than %d bits", i, x, v, x.Width)
			}
		}
	}
	return nil
}

// TestDecodeRejectsMalformedNodes: every node below breaks the sort
// discipline of the smart constructors and must be rejected at decode.
// Before decodeNode checked nodes, the first one decoded and made
// EvalBool index past the end of its empty argument list.
func TestDecodeRejectsMalformedNodes(t *testing.T) {
	x8 := TNode{K: "var", W: 8, N: "x"}
	y16 := TNode{K: "var", W: 16, N: "y"}
	a64 := TNode{K: "var", W: 64, N: "a"}
	b := TNode{K: "bvar", N: "b"}
	m := TNode{K: "mvar", N: "M"}
	cases := []struct {
		name  string
		nodes []TNode
	}{
		{"bvult without arguments", []TNode{{K: "bvult"}}},
		{"ite without arguments", []TNode{{K: "ite"}}},
		{"bvadd of one argument", []TNode{x8, {K: "bvadd", W: 8, A: []int{0}}}},
		{"bvadd of mixed widths", []TNode{x8, y16, {K: "bvadd", W: 8, A: []int{0, 1}}}},
		{"bvadd with the wrong result width", []TNode{x8, {K: "bvadd", W: 16, A: []int{0, 0}}}},
		{"bvnot of a Bool", []TNode{b, {K: "bvnot", A: []int{0}}}},
		{"and of bitvectors", []TNode{x8, {K: "and", A: []int{0, 0}}}},
		{"= across sorts", []TNode{x8, b, {K: "=", A: []int{0, 1}}}},
		{"bvult of mixed widths", []TNode{x8, y16, {K: "bvult", A: []int{0, 1}}}},
		{"ite with a bitvector condition", []TNode{x8, {K: "ite", W: 8, A: []int{0, 0, 0}}}},
		{"ite of mixed widths", []TNode{b, x8, y16, {K: "ite", W: 8, A: []int{0, 1, 2}}}},
		{"zero-width variable", []TNode{{K: "var", N: "z"}}},
		{"65-bit constant", []TNode{{K: "const", W: 65, V: "1"}}},
		{"constant wider than its width", []TNode{{K: "const", W: 4, V: "16"}}},
		{"Bool constant 2", []TNode{{K: "bconst", V: "2"}}},
		{"Bool variable with a width", []TNode{{K: "bvar", W: 8, N: "b"}}},
		{"extract past the top bit", []TNode{x8, {K: "extract", W: 4, Hi: 9, Lo: 6, A: []int{0}}}},
		{"extract with lo above hi", []TNode{x8, {K: "extract", W: 1, Hi: 2, Lo: 3, A: []int{0}}}},
		{"extract with the wrong width", []TNode{x8, {K: "extract", W: 8, Hi: 3, Lo: 0, A: []int{0}}}},
		{"concat wider than 64", []TNode{a64, x8, {K: "concat", W: 72, A: []int{0, 1}}}},
		{"concat with the wrong width", []TNode{x8, y16, {K: "concat", W: 16, A: []int{0, 1}}}},
		{"zext that narrows", []TNode{y16, {K: "zext", W: 8, A: []int{0}}}},
		{"sext past 64", []TNode{y16, {K: "sext", W: 65, A: []int{0}}}},
		{"select with a 16-bit address", []TNode{m, y16, {K: "select", W: 8, A: []int{0, 1}}}},
		{"select of a bitvector", []TNode{x8, a64, {K: "select", W: 8, A: []int{0, 1}}}},
		{"store of a 16-bit value", []TNode{m, a64, y16, {K: "store", A: []int{0, 1, 2}}}},
		{"name on an operator", []TNode{x8, {K: "bvneg", W: 8, N: "x", A: []int{0}}}},
		{"value on an operator", []TNode{x8, {K: "bvneg", W: 8, V: "3", A: []int{0}}}},
		{"bit indices on an operator", []TNode{x8, {K: "bvneg", W: 8, Hi: 3, A: []int{0}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := newTermLoader(c.nodes)
			if err := evalAll(t, l, len(c.nodes)); err == nil {
				t.Fatalf("malformed node %+v decoded", c.nodes[len(c.nodes)-1])
			}
		})
	}

	// The well-formed counterparts still decode.
	ok := []TNode{x8, y16, a64, b, m,
		{K: "extract", W: 4, Hi: 7, Lo: 4, A: []int{0}},
		{K: "concat", W: 24, A: []int{1, 0}},
		{K: "sext", W: 64, A: []int{1}},
		{K: "select", W: 8, A: []int{4, 2}},
		{K: "store", A: []int{4, 2, 8}},
		{K: "ite", W: 8, A: []int{3, 0, 8}},
		{K: "=", A: []int{9, 4}},
		{K: "const", W: 4, V: "15"},
		{K: "bconst", V: "1"},
	}
	if err := evalAll(t, newTermLoader(ok), len(ok)); err != nil {
		t.Fatalf("well-formed nodes rejected: %v", err)
	}
}

// seedCertDir writes a real one-function certificate directory through
// the recorder: a per-function term segment whose terms use every kind,
// model certificates over them, and one DRAT-backed Unsat certificate.
// It returns the directory and the function's artifact base name.
func seedCertDir(tb testing.TB) (dir, base string) {
	tb.Helper()
	dir = tb.TempDir()
	const fn = "seed"
	dw, err := NewFunctionDirWriter(dir, fn)
	if err != nil {
		tb.Fatal(err)
	}
	rec := dw.NewRecorder(fn)

	c := term.NewContext()
	x, y := c.VarBV("x", 8), c.VarBV("y", 8)
	p, mem, flag := c.VarBV("p", 64), c.VarMem("M"), c.VarBool("b")
	arith := c.Add(c.Sub(c.Mul(x, y), c.UDiv(x, y)), c.URem(c.Neg(x), c.BV(7, 8)))
	bits := c.Xor(c.And(x, c.NotBV(y)), c.Or(c.Shl(x, y), c.AShr(c.LShr(x, y), y)))
	wide := c.Concat(c.Extract(c.SExt(x, 16), 11, 4), c.ZExt(y, 16))
	stored := c.Store(mem, p, c.Ite(flag, arith, bits))
	forms := []*term.Term{
		c.AndB(c.Ult(arith, bits), c.Not(c.Sle(x, y))),
		c.OrB(c.Ule(c.Select(stored, p), x), c.Slt(c.Extract(wide, 23, 16), y)),
		c.Eq(stored, mem),
		c.Eq(wide, c.BV(0x1234, 24)),
	}
	a := term.NewAssign()
	a.BV["x"], a.BV["y"], a.BV["p"] = 200, 3, 1<<40
	for _, f := range forms {
		if ok, err := a.EvalBool(f); err != nil || !ok {
			f = c.Not(f)
		}
		rec.RecordModel(f, ModelFromAssign(a), "")
	}
	sess := rec.NewSession()
	sess.AddStep(OpInput, []int32{1, 2})
	sess.AddStep(OpInput, []int32{-1})
	sess.AddStep(OpInput, []int32{-2})
	rec.RecordUnsat(sess, sess.Len(), nil, "")
	if _, err := rec.Close(false); err != nil {
		tb.Fatal(err)
	}
	if err := dw.Close(); err != nil {
		tb.Fatal(err)
	}
	return dir, FileBase(fn)
}

// encodeFuzzNodes and decodeFuzzNodes map a node list to and from the
// compact byte form FuzzTermLoader mutates: per node a kind byte (an
// index into fuzzKinds; out of range is an unknown kind), width, hi and
// lo bytes, a uvarint value, a name byte (0 = none), an argument-count
// byte and one uvarint per argument. Bytes mutate into nodes far more
// often than JSON text does.
var fuzzKinds = func() []string {
	var ks []string
	for k := term.Kind(0); term.KindName(k) != ""; k++ {
		ks = append(ks, term.KindName(k))
	}
	return ks
}()

func encodeFuzzNodes(nodes []TNode) []byte {
	var out []byte
	names := map[string]byte{"": 0}
	for _, n := range nodes {
		kind := byte(len(fuzzKinds))
		for i, k := range fuzzKinds {
			if k == n.K {
				kind = byte(i)
			}
		}
		val, _ := strconv.ParseUint(n.V, 10, 64) // no value ("") encodes as 0
		if _, ok := names[n.N]; !ok {
			names[n.N] = byte(len(names))
		}
		out = append(out, kind, n.W, n.Hi, n.Lo)
		out = binary.AppendUvarint(out, val)
		out = append(out, names[n.N], byte(len(n.A)))
		for _, a := range n.A {
			out = binary.AppendUvarint(out, uint64(a))
		}
	}
	return out
}

func decodeFuzzNodes(data []byte) []TNode {
	var nodes []TNode
	r := bytes.NewReader(data)
	for len(nodes) < 512 {
		var head [4]byte
		if _, err := io.ReadFull(r, head[:]); err != nil {
			break
		}
		n := TNode{K: "?", W: head[1], Hi: head[2], Lo: head[3]}
		if int(head[0]) < len(fuzzKinds) {
			n.K = fuzzKinds[head[0]]
		}
		if val, err := binary.ReadUvarint(r); err == nil && val != 0 {
			n.V = fmt.Sprintf("%d", val)
		}
		if name, err := r.ReadByte(); err == nil && name != 0 {
			n.N = fmt.Sprintf("v%d", name)
		}
		argc, _ := r.ReadByte()
		for j := 0; j < int(argc%4); j++ {
			a, err := binary.ReadUvarint(r)
			if err != nil {
				break
			}
			n.A = append(n.A, int(a%1024))
		}
		nodes = append(nodes, n)
	}
	return nodes
}

// FuzzTermLoader feeds arbitrary node lists through termLoader.Term and
// evaluates every node that decodes: each call must return a term or an
// error, and evaluation a value or an error, never a panic. The corpus
// is seeded with the term segment of a real certificate directory.
func FuzzTermLoader(f *testing.F) {
	dir, base := seedCertDir(f)
	var rep CheckReport
	seed := loadTermSegmentFile(dir, base+TermsSuffix, &rep)
	if seed == nil || len(rep.Rejections) > 0 {
		f.Fatalf("seed segment unreadable: %v", rep.Rejections)
	}
	f.Add(encodeFuzzNodes(seed.nodes))
	f.Add(encodeFuzzNodes([]TNode{{K: "bvult"}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		nodes := decodeFuzzNodes(data)
		_ = evalAll(t, newTermLoader(nodes), len(nodes))
	})
}

// FuzzInflate feeds arbitrary bytes through the compressed-JSON
// container reader, as the certs stream of a function whose term segment
// and DRAT trace are real, and as a term segment whose every node is
// then evaluated. Nothing may panic. The corpus is seeded with the
// artifacts of a real certificate directory.
func FuzzInflate(f *testing.F) {
	dir, base := seedCertDir(f)
	var rep CheckReport
	loader := loadTermSegmentFile(dir, base+TermsSuffix, &rep)
	if loader == nil || len(rep.Rejections) > 0 {
		f.Fatalf("seed segment unreadable: %v", rep.Rejections)
	}
	for _, name := range []string{base + CertsSuffix, base + TermsSuffix} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(zjsonMagic + "\x01garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > len(zjsonMagic)+1 {
			n, _ := io.CopyN(io.Discard, flate.NewReader(bytes.NewReader(data[len(zjsonMagic)+1:])), 1<<20+1)
			if n > 1<<20 {
				t.Skip("inflates past 1 MiB") // bounds the fuzzer's own memory
			}
		}
		if zr, err := inflate(bytes.NewReader(data)); err == nil {
			_, _ = io.Copy(io.Discard, zr) // corrupt DEFLATE is an error, not a failure
		}
		if err := os.WriteFile(filepath.Join(dir, base+CertsSuffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
		checkFunctionCerts(dir, base, loader, &CheckReport{ByKind: map[string]int{}})
		if err := os.WriteFile(filepath.Join(dir, "fuzz"+TermsSuffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if l := loadTermSegmentFile(dir, "fuzz"+TermsSuffix, &CheckReport{}); l != nil && len(l.nodes) > 0 {
			// Decode every node, but evaluate only a prefix: each
			// evaluation walks the node's whole DAG, so evaluating all
			// of a long chain costs time quadratic in its length.
			if _, err := l.Term(len(l.nodes) - 1); err == nil {
				_ = evalAll(t, l, min(len(l.nodes), 512))
			}
		}
	})
}
