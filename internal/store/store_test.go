package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/proof"
	"repro/internal/telemetry"
)

func testEntry() *Entry {
	return &Entry{
		Meta: Meta{
			Function:      "f0",
			Class:         "Succeeded",
			CodeSize:      42,
			Points:        3,
			Certified:     true,
			CreatedUnixNS: 1700000000000000000,
		},
		Artifacts: []Artifact{
			{Name: "f0.certs.json", Data: []byte("certs-bytes")},
			{Name: "f0.drat", Data: bytes.Repeat([]byte{0xAB, 0x00, 0x7F}, 100)},
			{Name: "f0.witness.json", Data: []byte(`{"points":3}`)},
		},
	}
}

func openTestStore(t *testing.T) (*Store, *telemetry.Metrics) {
	t.Helper()
	m := telemetry.NewMetrics()
	s, err := Open(t.TempDir(), m)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, m
}

func TestRoundTrip(t *testing.T) {
	s, m := openTestStore(t)
	k := FunctionKey("f0", "src", "opts")
	if _, ok := s.Get(k); ok {
		t.Fatal("Get on empty store: want miss")
	}
	if m.Counter(MetricMiss) != 1 {
		t.Fatalf("miss counter = %d, want 1", m.Counter(MetricMiss))
	}
	want := testEntry()
	if err := s.Put(k, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(k)
	if !ok {
		t.Fatal("Get after Put: want hit")
	}
	if got.Meta != want.Meta {
		t.Fatalf("Meta round-trip: got %+v, want %+v", got.Meta, want.Meta)
	}
	if len(got.Artifacts) != len(want.Artifacts) {
		t.Fatalf("artifact count: got %d, want %d", len(got.Artifacts), len(want.Artifacts))
	}
	for i, a := range want.Artifacts {
		if got.Artifacts[i].Name != a.Name || !bytes.Equal(got.Artifacts[i].Data, a.Data) {
			t.Fatalf("artifact %d mismatch", i)
		}
	}
	if got.Artifact("f0.drat") == nil || got.Artifact("absent") != nil {
		t.Fatal("Artifact lookup broken")
	}
	if m.Counter(MetricHit) != 1 || m.Counter(MetricPut) != 1 {
		t.Fatalf("hit=%d put=%d, want 1/1", m.Counter(MetricHit), m.Counter(MetricPut))
	}
	if !s.Contains(k) || s.Contains(FunctionKey("other")) {
		t.Fatal("Contains broken")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestKeyFromHex(t *testing.T) {
	k := FunctionKey("a", "b")
	back, err := KeyFromHex(k.Hex())
	if err != nil || back != k {
		t.Fatalf("KeyFromHex round-trip: %v", err)
	}
	for _, bad := range []string{"", "zz", k.Hex()[:10], k.Hex() + "00"} {
		if _, err := KeyFromHex(bad); err == nil {
			t.Fatalf("KeyFromHex(%q): want error", bad)
		}
	}
	// Length-prefixing: concatenation-equal part lists must not collide.
	if FunctionKey("ab", "c") == FunctionKey("a", "bc") {
		t.Fatal("FunctionKey collides under concatenation")
	}
}

// corruptEntry rewrites the stored entry file through fn.
func corruptEntry(t *testing.T, s *Store, k Key, fn func([]byte) []byte) {
	t.Helper()
	path := s.entryPath(k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatalf("rewrite entry: %v", err)
	}
}

func TestCorruptionTruncated(t *testing.T) {
	s, m := openTestStore(t)
	k := FunctionKey("trunc")
	if err := s.Put(k, testEntry()); err != nil {
		t.Fatal(err)
	}
	// Chop the tail: truncation lands inside an artifact body (or the
	// meta header for very short prefixes). Every prefix must be a
	// clean miss, never a panic or a verdict.
	full, _ := os.ReadFile(s.entryPath(k))
	for _, n := range []int{len(full) - 1, len(full) / 2, 7, 4, 1, 0} {
		corruptEntry(t, s, k, func(b []byte) []byte { return full[:n] })
		if _, ok := s.Get(k); ok {
			t.Fatalf("truncated to %d bytes: want miss", n)
		}
	}
	if c := m.Counter(MetricCorrupt); c != 6 {
		t.Fatalf("store.corrupt = %d, want 6", c)
	}
	if m.Counter(MetricBadVersion) != 0 {
		t.Fatal("truncation must not count as badversion")
	}
}

func TestCorruptionBitFlip(t *testing.T) {
	s, m := openTestStore(t)
	k := FunctionKey("flip")
	if err := s.Put(k, testEntry()); err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the last artifact body — past the JSON header, so
	// only the per-artifact CRC can catch it.
	corruptEntry(t, s, k, func(b []byte) []byte {
		b[len(b)-1] ^= 0x40
		return b
	})
	if _, ok := s.Get(k); ok {
		t.Fatal("bit-flipped artifact: want miss, got trusted verdict")
	}
	if m.Counter(MetricCorrupt) != 1 || m.Counter(MetricMiss) != 1 {
		t.Fatalf("corrupt=%d miss=%d, want 1/1",
			m.Counter(MetricCorrupt), m.Counter(MetricMiss))
	}
}

func TestCorruptionBadMagic(t *testing.T) {
	s, m := openTestStore(t)
	k := FunctionKey("magic")
	if err := s.Put(k, testEntry()); err != nil {
		t.Fatal(err)
	}
	corruptEntry(t, s, k, func(b []byte) []byte {
		copy(b, "XXXX")
		return b
	})
	if _, ok := s.Get(k); ok {
		t.Fatal("bad magic: want miss")
	}
	if m.Counter(MetricCorrupt) != 1 {
		t.Fatalf("store.corrupt = %d, want 1", m.Counter(MetricCorrupt))
	}
}

func TestUnknownFutureVersion(t *testing.T) {
	s, m := openTestStore(t)
	k := FunctionKey("future")
	if err := s.Put(k, testEntry()); err != nil {
		t.Fatal(err)
	}
	corruptEntry(t, s, k, func(b []byte) []byte {
		b[len(entryMagic)] = 0x7F
		return b
	})
	if _, ok := s.Get(k); ok {
		t.Fatal("future version: want miss")
	}
	if m.Counter(MetricBadVersion) != 1 || m.Counter(MetricMiss) != 1 {
		t.Fatalf("badversion=%d miss=%d, want 1/1",
			m.Counter(MetricBadVersion), m.Counter(MetricMiss))
	}
	if m.Counter(MetricCorrupt) != 0 {
		t.Fatal("future version must not count as corruption")
	}
}

// TestDecoderTableBump simulates a format-generation bump: a store full
// of v1 entries must stay readable after a v2 decoder joins the table
// and the writer moves on.
func TestDecoderTableBump(t *testing.T) {
	s, _ := openTestStore(t)
	k := FunctionKey("v1-era")
	if err := s.Put(k, testEntry()); err != nil {
		t.Fatal(err)
	}
	// Register a (fake) future decoder, as a real version bump would.
	if _, claimed := entryDecoders[2]; claimed {
		t.Fatal("version 2 already registered; bump the test version")
	}
	entryDecoders[2] = func(payload []byte) (*Entry, error) {
		return &Entry{Meta: Meta{Function: "decoded-by-v2"}}, nil
	}
	defer delete(entryDecoders, 2)

	// Old v1 entries still decode through the v1 decoder.
	got, ok := s.Get(k)
	if !ok || got.Meta.Function != "f0" {
		t.Fatal("v1 entry unreadable after decoder-table bump")
	}
	// And a v2-stamped entry dispatches to the new decoder.
	corruptEntry(t, s, k, func(b []byte) []byte {
		b[len(entryMagic)] = 2
		return b
	})
	got, ok = s.Get(k)
	if !ok || got.Meta.Function != "decoded-by-v2" {
		t.Fatal("v2 entry did not dispatch to the v2 decoder")
	}
}

func TestCrashSafety(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A leftover temp file from a crashed writer must not surface as an
	// entry or break reopening.
	junk := filepath.Join(dir, tmpDir, "put-9999-1.tve")
	if err := os.WriteFile(junk, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len counts tmp junk: %d", s.Len())
	}
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("reopen with tmp junk: %v", err)
	}
	k := FunctionKey("post-crash")
	if err := s2.Put(k, testEntry()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(k); !ok {
		t.Fatal("Put/Get after crash leftovers")
	}
}

func TestManifestValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("manifest not created: %v", err)
	}
	// Reopen accepts the manifest it wrote.
	if _, err := Open(dir, nil); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	// A future manifest version refuses Open: we must not write into a
	// store whose rules we cannot read.
	data, _ := os.ReadFile(path)
	data[len(manifestMagic)] = 0x7F
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil); err == nil || !isBadVersion(err) {
		t.Fatalf("future manifest: want bad-version error, got %v", err)
	}
	// A garbage manifest also refuses Open.
	if err := os.WriteFile(path, []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil); err == nil {
		t.Fatal("garbage manifest: want error")
	}
}

func TestMaterialize(t *testing.T) {
	s, _ := openTestStore(t)
	e := testEntry()
	out, err := EntryDir(e)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(out)
	m, err := proof.ReadManifest(out)
	if err != nil || m == nil || len(m.Functions) != 1 || m.Functions[0].Name != e.Meta.Function {
		t.Fatalf("entry manifest: %+v, %v", m, err)
	}
	for _, a := range e.Artifacts {
		data, err := os.ReadFile(filepath.Join(out, a.Name))
		if err != nil || !bytes.Equal(data, a.Data) {
			t.Fatalf("materialized %s: %v", a.Name, err)
		}
	}
	// Unsafe names are refused, at encode time and at materialize time.
	evil := &Entry{Artifacts: []Artifact{{Name: "../escape", Data: []byte("x")}}}
	if err := MaterializeEntry(out, evil); err == nil {
		t.Fatal("materialize with path traversal name: want error")
	}
	if _, err := encodeEntry(evil); err == nil {
		t.Fatal("encode with path traversal name: want error")
	}
	if err := s.Put(FunctionKey("evil"), evil); err == nil {
		t.Fatal("Put with path traversal name: want error")
	}
}

func TestNilMetrics(t *testing.T) {
	s, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	k := FunctionKey("nil-metrics")
	if _, ok := s.Get(k); ok {
		t.Fatal("want miss")
	}
	if err := s.Put(k, testEntry()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); !ok {
		t.Fatal("want hit")
	}
}
