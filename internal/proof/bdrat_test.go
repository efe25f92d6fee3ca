package proof_test

// Round-trip and rejection tests of the binary DRAT container: seeded
// random streams — arbitrary session interleavings, clause shapes, and
// opcodes — must decode back to exactly the steps written (modulo the
// canonical literal order the encoder imposes), and malformed headers or
// truncated bodies — and the retired text format — must be rejected
// rather than misparsed.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/proof"
)

// canonLits is the canonical clause order the binary encoder imposes:
// by variable, positive polarity first on ties.
func canonLits(lits []int32) []int32 {
	out := append([]int32(nil), lits...)
	sort.Slice(out, func(i, j int) bool {
		ai, aj := out[i], out[j]
		if ai < 0 {
			ai = -ai
		}
		if aj < 0 {
			aj = -aj
		}
		if ai != aj {
			return ai < aj
		}
		return out[i] > out[j]
	})
	return out
}

func TestBinDratRoundTripFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(0xB07A7))
	ops := []byte{proof.OpInput, proof.OpLearn, proof.OpDelete}
	for iter := 0; iter < 300; iter++ {
		nsess := 1 + rng.Intn(4)
		nsteps := rng.Intn(80)
		var want []dratStep
		seen := 0
		for i := 0; i < nsteps; i++ {
			// Pick a session the writer accepts: any already-open index, or
			// the next unopened one while sessions remain — this exercises
			// both interleaved resumption and mid-stream session creation.
			sess := rng.Intn(seen + 1)
			if sess == seen {
				if seen == nsess {
					sess = rng.Intn(seen)
				} else {
					seen++
				}
			}
			width := rng.Intn(9) // empty clauses allowed (global refutation)
			lits := make([]int32, width)
			for j := range lits {
				v := int32(1 + rng.Intn(5000))
				if rng.Intn(2) == 1 {
					v = -v
				}
				lits[j] = v
			}
			want = append(want, dratStep{sess, ops[rng.Intn(len(ops))], lits})
		}

		var buf bytes.Buffer
		bw := proof.NewBinWriter(&buf)
		for _, s := range want {
			if err := bw.Step(s.sess, s.op, s.lits); err != nil {
				t.Fatalf("iter %d: Step: %v", iter, err)
			}
		}
		if err := bw.Close(); err != nil {
			t.Fatalf("iter %d: Close: %v", iter, err)
		}

		var got []dratStep
		err := proof.WalkDrat(bytes.NewReader(buf.Bytes()), func(sess int, op byte, lits []int32) error {
			got = append(got, dratStep{sess, op, append([]int32(nil), lits...)})
			return nil
		})
		if err != nil {
			t.Fatalf("iter %d: WalkDrat: %v", iter, err)
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: decoded %d steps, wrote %d", iter, len(got), len(want))
		}
		for i := range want {
			w, g := want[i], got[i]
			if g.sess != w.sess || g.op != w.op {
				t.Fatalf("iter %d step %d: got session %d op %q, want %d %q",
					iter, i, g.sess, g.op, w.sess, w.op)
			}
			cw := canonLits(w.lits)
			if len(g.lits) != len(cw) {
				t.Fatalf("iter %d step %d: got %d literals, want %d", iter, i, len(g.lits), len(cw))
			}
			for j := range cw {
				if g.lits[j] != cw[j] {
					t.Fatalf("iter %d step %d: literals %v, want %v", iter, i, g.lits, cw)
				}
			}
		}
	}
}

func TestBinDratUnknownVersionRejected(t *testing.T) {
	data := append([]byte("BDRT"), 99, 1, 2, 3)
	err := proof.WalkDrat(bytes.NewReader(data), func(int, byte, []int32) error { return nil })
	if err == nil {
		t.Fatal("unknown version byte accepted")
	}
	// A trace of the retired version — literals coded upward from 0 —
	// is refused by its version byte, not misread under the anchors.
	retired := rawDrat(proof.BinDratVersion-1, []byte{'s', 0, proof.OpInput, 2, 2, 5})
	err = proof.WalkDrat(bytes.NewReader(retired), func(int, byte, []int32) error { return nil })
	want := fmt.Sprintf("binary drat version %d, checker supports %d", proof.BinDratVersion-1, proof.BinDratVersion)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("retired-version trace: err = %v, want %q", err, want)
	}
}

// rawDrat wraps hand-written records in a container of the given
// version, with the CRC trailer the decoder requires.
func rawDrat(version byte, records []byte) []byte {
	body := append(append([]byte(nil), records...), 'c')
	body = binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	var buf bytes.Buffer
	buf.WriteString("BDRT")
	buf.WriteByte(version)
	fw, _ := flate.NewWriter(&buf, flate.DefaultCompression)
	fw.Write(body)
	fw.Close()
	return buf.Bytes()
}

// writeSteps encodes steps with a BinWriter.
func writeSteps(t *testing.T, steps []dratStep) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := proof.NewBinWriter(&buf)
	for _, s := range steps {
		if err := bw.Step(s.sess, s.op, s.lits); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkSteps decodes data and compares it with the steps written, each
// clause in canonical order.
func checkSteps(t *testing.T, data []byte, want []dratStep) {
	t.Helper()
	got, err := walkAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d steps, wrote %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.sess != w.sess || g.op != w.op || fmt.Sprint(g.lits) != fmt.Sprint(canonLits(w.lits)) {
			t.Fatalf("step %d: got %d %q %v, want %d %q %v",
				i, g.sess, g.op, g.lits, w.sess, w.op, canonLits(w.lits))
		}
	}
}

// walkAll decodes a container into copied steps.
func walkAll(data []byte) ([]dratStep, error) {
	var got []dratStep
	err := proof.WalkDrat(bytes.NewReader(data), func(sess int, op byte, lits []int32) error {
		got = append(got, dratStep{sess, op, append([]int32(nil), lits...)})
		return nil
	})
	return got, err
}

// TestBinDratAnchorCoding pins the version-4 literal coding record by
// record: each step's top variable is a zigzag delta from the previous
// non-empty step's top variable, reset to 0 by every 's' record, and
// later literals are downward gaps. The records here are written by
// hand, so a writer and decoder that drifted from the format together
// (say, both dropping the reset) still fail.
func TestBinDratAnchorCoding(t *testing.T) {
	steps := []dratStep{
		{0, proof.OpInput, []int32{3, -1}},  // top 3 from anchor 0: zigzag(3)<<1 = 12; gap 2, negative: 5
		{0, proof.OpLearn, []int32{2}},      // top below the anchor: zigzag(-1)<<1 = 2
		{0, proof.OpInput, nil},             // the empty clause leaves the anchor at 2
		{0, proof.OpDelete, []int32{4, -4}}, // zigzag(2)<<1|1 = 9 for -4, then gap 0 for 4
		{1, proof.OpInput, []int32{5}},      // new session: anchor 0, zigzag(5)<<1 = 20
		{0, proof.OpLearn, []int32{4}},      // resumed session: anchor 0 again, 16
	}
	records := []byte{
		's', 0, proof.OpInput, 2, 12, 5,
		proof.OpLearn, 1, 2,
		proof.OpInput, 0,
		proof.OpDelete, 2, 9, 0,
		's', 1, proof.OpInput, 1, 20,
		's', 0, proof.OpLearn, 1, 16,
	}
	data := writeSteps(t, steps)
	body, err := io.ReadAll(flate.NewReader(bytes.NewReader(data[5:])))
	if err != nil {
		t.Fatal(err)
	}
	if len(body) < 5 || !bytes.Equal(body[:len(body)-5], records) {
		t.Fatalf("writer records %v, want %v", body, records)
	}
	checkSteps(t, data, steps)
	checkSteps(t, rawDrat(proof.BinDratVersion, records), steps)
}

// TestBinDratAnchorSessions round-trips interleaved sessions whose
// variables sit far apart, so every resumed session's first step is
// coded against the reset anchor rather than the other session's.
func TestBinDratAnchorSessions(t *testing.T) {
	steps := []dratStep{
		{0, proof.OpInput, []int32{100000, -99999, 7}},
		{1, proof.OpInput, []int32{-3, 2}},
		{0, proof.OpLearn, []int32{100001}},
		{2, proof.OpInput, []int32{math.MaxInt32, -1}},
		{1, proof.OpLearn, []int32{-1}},
		{1, proof.OpDelete, []int32{2, -3}},
		{0, proof.OpInput, []int32{6, -6, 5}},
		{2, proof.OpLearn, []int32{1}},
		{0, proof.OpLearn, nil},
		{0, proof.OpLearn, []int32{-7}},
	}
	checkSteps(t, writeSteps(t, steps), steps)
}

// TestBinDratAnchorRejected: hand-written records whose literals leave
// 1..MaxInt32 are rejected at that step; only the valid step before it,
// if any, reaches fn.
func TestBinDratAnchorRejected(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	first := []byte{'s', 0, proof.OpInput, 1, 12} // a valid step [3]: the anchor becomes 3
	cases := []struct {
		name    string
		records []byte
		want    string
	}{
		{"first literal 0", []byte{'s', 0, proof.OpInput, 1, 0}, "zero literal"},
		{"first literal -0", []byte{'s', 0, proof.OpInput, 1, 1}, "zero literal"},
		{"first literal back to 0 from the anchor", append(first, proof.OpInput, 1, 10), "zero literal"}, // zigzag(-3)
		{"first literal negative", []byte{'s', 0, proof.OpInput, 1, 2}, "negative variable"},             // zigzag(-1)
		{"first literal below 0 from the anchor", append(first, proof.OpInput, 1, 14), "negative variable"},
		{"first literal past MaxInt32", append([]byte{'s', 0, proof.OpInput, 1}, uv(1<<33)...), "literal overflow"},
		{"first literal past MaxInt32 from the anchor",
			append(append([]byte{'s', 0, proof.OpInput, 1}, uv(math.MaxInt32<<2)...), proof.OpInput, 1, 4), // zigzag(1)
			"literal overflow"},
		{"huge zigzag delta", append([]byte{'s', 0, proof.OpInput, 1}, uv(math.MaxUint64)...), "negative variable"},
		{"gap to 0", append(first, proof.OpInput, 2, 2, 4), "zero literal"},        // 2, then gap 2
		{"gap past 0", append(first, proof.OpInput, 2, 2, 6), "negative variable"}, // 2, then gap 3
		{"huge gap", append(append(first, proof.OpInput, 2, 2), uv(math.MaxUint64)...), "negative variable"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := walkAll(rawDrat(proof.BinDratVersion, c.records))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
			for _, s := range got {
				if s.op != proof.OpInput || fmt.Sprint(s.lits) != "[3]" && fmt.Sprint(s.lits) != "[2147483647]" {
					t.Fatalf("rejected stream delivered step %v", s)
				}
			}
		})
	}
}

func TestBinDratTruncatedRejected(t *testing.T) {
	var buf bytes.Buffer
	bw := proof.NewBinWriter(&buf)
	for i := 0; i < 50; i++ {
		if err := bw.Step(0, proof.OpInput, []int32{int32(i + 1), -int32(i + 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()/2]
	err := proof.WalkDrat(bytes.NewReader(data), func(int, byte, []int32) error { return nil })
	if err == nil {
		t.Fatal("truncated body accepted")
	}
}

// TestBinDratTextRejected pins the single decode path: a retired
// schema-1 text trace is rejected as unsupported, not parsed, and fn
// never sees a step of it.
func TestBinDratTextRejected(t *testing.T) {
	for _, text := range []string{
		"s 0\ni 1 -2 0\nl -1 0\ns 1\ni 3 0\ns 0\nd 1 -2 0\n",
		"s 2\ni 1 -2 0\ns 0\ni 3 0\n", // out-of-order first appearances
		"",
	} {
		steps := 0
		err := proof.WalkDrat(bytes.NewReader([]byte(text)), func(int, byte, []int32) error {
			steps++
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "unsupported") {
			t.Errorf("text trace %q: err = %v, want an unsupported-format rejection", text, err)
		}
		if steps != 0 {
			t.Errorf("text trace %q: walked %d steps before rejecting", text, steps)
		}
	}
}

// TestBinDratOutOfOrderSessions pins the session-numbering fix: session
// indices are assigned at creation but traces land at decision time, so
// a later-created session (a winning portfolio racer's) may write before
// an earlier one (the lazily-flushed incremental session). Both the
// writer and the walker must accept first appearances in any order.
// (The same ordering in the retired text format is rejected; see
// TestBinDratTextRejected.)
func TestBinDratOutOfOrderSessions(t *testing.T) {
	steps := []dratStep{
		{2, proof.OpInput, []int32{1, -2}}, // racer session flushes first
		{0, proof.OpInput, []int32{3}},     // primary session flushes later
		{2, proof.OpLearn, []int32{-1}},
		{1, proof.OpInput, []int32{2, 4}},
	}
	var buf bytes.Buffer
	bw := proof.NewBinWriter(&buf)
	for _, s := range steps {
		if err := bw.Step(s.sess, s.op, s.lits); err != nil {
			t.Fatalf("Step(sess=%d): %v", s.sess, err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	var got []dratStep
	err := proof.WalkDrat(bytes.NewReader(buf.Bytes()), func(sess int, op byte, lits []int32) error {
		got = append(got, dratStep{sess, op, append([]int32(nil), lits...)})
		return nil
	})
	if err != nil {
		t.Fatalf("WalkDrat: %v", err)
	}
	if len(got) != len(steps) {
		t.Fatalf("decoded %d steps, wrote %d", len(got), len(steps))
	}
	for i, w := range steps {
		if got[i].sess != w.sess || got[i].op != w.op {
			t.Fatalf("step %d: got session %d op %q, want %d %q",
				i, got[i].sess, got[i].op, w.sess, w.op)
		}
	}
	if bw.Step(-1, proof.OpInput, nil) == nil {
		t.Fatal("negative session accepted")
	}
}

// FuzzWalkDrat feeds arbitrary container bytes through WalkDrat into
// one SessionChecker per session, as proofcheck does with untrusted
// .drat files. Nothing may panic, and allocation must stay linear in
// the inflated stream: a huge variable index or session number is a
// few bytes of input and must cost a few bytes of memory.
func FuzzWalkDrat(f *testing.F) {
	valid := func(steps []dratStep) []byte {
		var buf bytes.Buffer
		bw := proof.NewBinWriter(&buf)
		for _, s := range steps {
			if err := bw.Step(s.sess, s.op, s.lits); err != nil {
				f.Fatal(err)
			}
		}
		if err := bw.Close(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(valid([]dratStep{
		{0, proof.OpInput, []int32{1, 2}}, {0, proof.OpInput, []int32{-1, 2}},
		{0, proof.OpLearn, []int32{2}}, {1, proof.OpInput, []int32{-3}},
		{0, proof.OpDelete, []int32{2, 1}}, {0, proof.OpLearn, []int32{1}},
	}))
	f.Add(valid([]dratStep{
		{0, proof.OpInput, []int32{math.MaxInt32, -3}}, {1 << 30, proof.OpInput, nil},
	}))
	f.Add(append([]byte("BDRT"), proof.BinDratVersion, 'g', 'a', 'r', 'b', 'a', 'g', 'e'))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		inflated := 0
		if len(data) > 5 {
			n, _ := io.Copy(io.Discard, flate.NewReader(bytes.NewReader(data[5:])))
			inflated = int(n)
		}
		if inflated > 1<<20 {
			t.Skip("inflates past 1 MiB") // bounds the fuzzer's own memory
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		checkers := map[int]*proof.SessionChecker{}
		// Most inputs are malformed; only panics and allocation count here.
		_ = proof.WalkDrat(bytes.NewReader(data), func(sess int, op byte, lits []int32) error {
			ck := checkers[sess]
			if ck == nil {
				ck = proof.NewSessionChecker()
				checkers[sess] = ck
			}
			// A step error is a rejection; the checker stays usable.
			switch op {
			case proof.OpInput:
				_ = ck.AddInput(lits)
			case proof.OpLearn:
				_ = ck.AddLearnt(lits)
			case proof.OpDelete:
				_ = ck.Delete(lits)
			}
			return nil
		})
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+1024*inflated); got > bound {
			t.Fatalf("%d input bytes (%d inflated) allocated %d bytes, bound %d",
				len(data), inflated, got, bound)
		}
	})
}
