package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// putN stores n distinct entries and returns their keys in put order.
func putN(t *testing.T, s *Store, n int) []Key {
	t.Helper()
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = FunctionKey(fmt.Sprintf("fn-%d", i))
		e := testEntry()
		e.Meta.Function = fmt.Sprintf("fn-%d", i)
		if err := s.Put(keys[i], e); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	return keys
}

// setAccess back-dates k's access-time sidecar.
func setAccess(t *testing.T, s *Store, k Key, at time.Time) {
	t.Helper()
	if err := os.Chtimes(s.touchPath(k), at, at); err != nil {
		t.Fatalf("Chtimes: %v", err)
	}
}

func TestGCEvictsLRUWholeEntries(t *testing.T) {
	s, m := openTestStore(t)
	keys := putN(t, s, 4)
	perEntry := s.Usage() / 4

	// Stagger access times: keys[0] coldest ... keys[3] hottest. The
	// filesystem clock may tick coarsely, so the times are set explicitly
	// rather than relying on Put order.
	base := time.Now().Add(-time.Hour)
	for i, k := range keys {
		setAccess(t, s, k, base.Add(time.Duration(i)*time.Minute))
	}

	budget := perEntry*2 + perEntry/2 // room for exactly two entries
	res := s.GC(budget)
	if res.Evicted != 2 || res.BytesAfter > budget {
		t.Fatalf("GC: evicted=%d after=%d budget=%d", res.Evicted, res.BytesAfter, budget)
	}
	if res.BytesBefore != perEntry*4 || res.EvictedBytes != perEntry*2 {
		t.Fatalf("GC accounting: before=%d evictedBytes=%d perEntry=%d",
			res.BytesBefore, res.EvictedBytes, perEntry)
	}
	// The two coldest entries are gone, whole; the two hottest survive
	// intact and still decode.
	for i, k := range keys {
		_, ok := s.Get(k)
		if want := i >= 2; ok != want {
			t.Fatalf("after GC: Get(keys[%d]) = %t, want %t", i, ok, want)
		}
	}
	if m.Counter(MetricGCRuns) != 1 || m.Counter(MetricGCEvicted) != 2 ||
		m.Counter(MetricGCEvictedBytes) != perEntry*2 {
		t.Fatalf("gc metrics: runs=%d evicted=%d bytes=%d",
			m.Counter(MetricGCRuns), m.Counter(MetricGCEvicted), m.Counter(MetricGCEvictedBytes))
	}
}

func TestGetRefreshesLRUOrder(t *testing.T) {
	s, _ := openTestStore(t)
	keys := putN(t, s, 2)
	perEntry := s.Usage() / 2

	// keys[1] is the more recent... until a Get on keys[0] refreshes it.
	setAccess(t, s, keys[0], time.Now().Add(-2*time.Hour))
	setAccess(t, s, keys[1], time.Now().Add(-time.Hour))
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("Get(keys[0])")
	}
	res := s.GC(perEntry)
	if res.Evicted != 1 {
		t.Fatalf("GC evicted %d, want 1", res.Evicted)
	}
	if !s.Contains(keys[0]) || s.Contains(keys[1]) {
		t.Fatal("GC must evict the entry whose access time is oldest, counting the Get refresh")
	}
}

func TestPutOverflowTriggersGC(t *testing.T) {
	s, m := openTestStore(t)
	probe := FunctionKey("probe")
	if err := s.Put(probe, testEntry()); err != nil {
		t.Fatal(err)
	}
	perEntry := s.Usage()
	s.GC(0) // clear the probe

	s.SetMaxBytes(perEntry * 3)
	for i := 0; i < 8; i++ {
		k := FunctionKey(fmt.Sprintf("overflow-%d", i))
		if err := s.Put(k, testEntry()); err != nil {
			t.Fatal(err)
		}
		if u := s.Usage(); u > perEntry*3 {
			t.Fatalf("after Put %d: usage %d exceeds budget %d", i, u, perEntry*3)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 under a 3-entry budget", s.Len())
	}
	if m.Counter(MetricGCRuns) == 0 {
		t.Fatal("overflow Puts must run GC")
	}
}

func TestGCReclaimsOrphanTouchFiles(t *testing.T) {
	s, _ := openTestStore(t)
	k := FunctionKey("orphan")
	if err := s.Put(k, testEntry()); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.entryPath(k)); err != nil {
		t.Fatal(err)
	}
	s.GC(1 << 40)
	if _, err := os.Stat(s.touchPath(k)); !os.IsNotExist(err) {
		t.Fatalf("orphan touch sidecar survived GC: %v", err)
	}
}

func TestScrubQuarantinesCorruptEntry(t *testing.T) {
	s, m := openTestStore(t)
	keys := putN(t, s, 3)
	// Flip a bit in the last artifact body of keys[1]: only the CRC can
	// catch it.
	corruptEntry(t, s, keys[1], func(b []byte) []byte {
		b[len(b)-1] ^= 0x01
		return b
	})

	st := s.ScrubOnce(ScrubConfig{})
	if st.Scanned != 3 || st.Quarantined != 1 || st.Verified != 0 {
		t.Fatalf("scrub: %+v", st)
	}
	// The quarantined key is a clean miss; the intact neighbors still hit.
	if _, ok := s.Get(keys[1]); ok {
		t.Fatal("quarantined entry must read as a miss")
	}
	if !s.Contains(keys[0]) || !s.Contains(keys[2]) {
		t.Fatal("scrub must not disturb intact entries")
	}
	if s.QuarantineLen() != 1 {
		t.Fatalf("QuarantineLen = %d, want 1", s.QuarantineLen())
	}
	// The damaged bytes and the reason sidecar are preserved for the
	// post-mortem.
	hx := keys[1].Hex()
	if _, err := os.Stat(filepath.Join(s.Dir(), quarantineDir, hx+entrySuffix)); err != nil {
		t.Fatalf("quarantined entry bytes missing: %v", err)
	}
	reason, err := os.ReadFile(filepath.Join(s.Dir(), quarantineDir, hx+reasonSuffix))
	if err != nil || !strings.Contains(string(reason), "scrub") {
		t.Fatalf("reason sidecar: %q, %v", reason, err)
	}
	if m.Counter(MetricScrubQuarantined) != 1 || m.Counter(MetricScrubScanned) != 3 {
		t.Fatalf("scrub metrics: quarantined=%d scanned=%d",
			m.Counter(MetricScrubQuarantined), m.Counter(MetricScrubScanned))
	}
	// A fresh Put re-populates the key as if it had never been damaged.
	if err := s.Put(keys[1], testEntry()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(keys[1]); !ok {
		t.Fatal("re-Put after quarantine must hit")
	}
}

func TestScrubSkipsFutureVersions(t *testing.T) {
	s, m := openTestStore(t)
	keys := putN(t, s, 2)
	corruptEntry(t, s, keys[0], func(b []byte) []byte {
		b[len(entryMagic)] = 0x7F
		return b
	})
	st := s.ScrubOnce(ScrubConfig{})
	if st.BadVersion != 1 || st.Quarantined != 0 {
		t.Fatalf("scrub: %+v — future versions are skipped, never quarantined", st)
	}
	if s.QuarantineLen() != 0 {
		t.Fatal("future-version entry must stay in place")
	}
	if m.Counter(MetricScrubBadVersion) != 1 {
		t.Fatalf("badversion metric = %d", m.Counter(MetricScrubBadVersion))
	}
}

func TestScrubVerifyFractionAndOverride(t *testing.T) {
	s, _ := openTestStore(t)
	putN(t, s, 4)
	var verified []string
	st := s.ScrubOnce(ScrubConfig{
		Fraction: 0.5,
		Verify: func(e *Entry) error {
			verified = append(verified, e.Meta.Function)
			return nil
		},
	})
	if st.Verified != 2 || len(verified) != 2 {
		t.Fatalf("Fraction 0.5 over 4 entries: verified %d (%v), want 2", st.Verified, verified)
	}

	// A verify failure quarantines the intact-looking entry: rot that
	// only certificate replay can catch still gets pulled from service.
	st = s.ScrubOnce(ScrubConfig{
		Fraction: 1,
		Verify: func(e *Entry) error {
			if e.Meta.Function == "fn-2" {
				return errors.New("synthetic certificate rejection")
			}
			return nil
		},
	})
	if st.Quarantined != 1 {
		t.Fatalf("scrub with failing verify: %+v", st)
	}
	if s.Contains(FunctionKey("fn-2")) {
		t.Fatal("entry failing end-to-end verification must be quarantined")
	}
}

func TestScrubDoesNotTouchAccessTimes(t *testing.T) {
	s, _ := openTestStore(t)
	k := putN(t, s, 1)[0]
	old := time.Now().Add(-time.Hour)
	setAccess(t, s, k, old)
	s.ScrubOnce(ScrubConfig{Fraction: 1, Verify: func(*Entry) error { return nil }})
	info, err := os.Stat(s.touchPath(k))
	if err != nil {
		t.Fatal(err)
	}
	if info.ModTime().After(old.Add(time.Second)) {
		t.Fatalf("scrub refreshed the access time: %v", info.ModTime())
	}
}

func TestBackgroundScrubber(t *testing.T) {
	s, m := openTestStore(t)
	keys := putN(t, s, 5)
	corruptEntry(t, s, keys[3], func(b []byte) []byte {
		copy(b, "XXXX")
		return b
	})
	sc := s.StartScrubber(ScrubberConfig{
		ScrubConfig: ScrubConfig{Verify: func(*Entry) error { return nil }},
		Interval:    time.Millisecond,
		Sample:      2,
	})
	deadline := time.Now().Add(5 * time.Second)
	for s.QuarantineLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background scrubber never quarantined the corrupt entry")
		}
		time.Sleep(time.Millisecond)
	}
	sc.Close()
	sc.Close() // idempotent
	if _, ok := s.Get(keys[3]); ok {
		t.Fatal("quarantined entry served as hit")
	}
	if m.Counter(MetricScrubRounds) == 0 {
		t.Fatal("rounds metric never bumped")
	}
	// The sampler's cursor wraps: with Sample 2 over 4 surviving keys,
	// enough rounds have run that every key was scanned at least once.
	if m.Counter(MetricScrubScanned) < 4 {
		t.Fatalf("scanned = %d, want the cursor to circle the key space", m.Counter(MetricScrubScanned))
	}
}

func TestNextAfterWraparound(t *testing.T) {
	s, _ := openTestStore(t)
	keys := putN(t, s, 5)
	sorted := s.Keys()
	if len(sorted) != 5 {
		t.Fatalf("Keys: %d", len(sorted))
	}
	// Windows of 2 starting after each cursor must walk the ring in hex
	// order with wraparound and no repeats within a window.
	win := nextAfter(sorted, sorted[3].Hex(), 3)
	want := []Key{sorted[4], sorted[0], sorted[1]}
	for i := range want {
		if win[i] != want[i] {
			t.Fatalf("nextAfter window[%d] = %s, want %s", i, win[i].Hex()[:8], want[i].Hex()[:8])
		}
	}
	if got := nextAfter(sorted, "", 99); len(got) != 5 {
		t.Fatalf("oversized window: %d keys, want all 5", len(got))
	}
	if nextAfter(nil, "", 4) != nil {
		t.Fatal("empty key space")
	}
	_ = keys
}

func TestUsageAndSetMaxBytes(t *testing.T) {
	s, _ := openTestStore(t)
	if s.Usage() != 0 || s.MaxBytes() != 0 {
		t.Fatal("fresh store must be empty and unbounded")
	}
	putN(t, s, 2)
	u := s.Usage()
	if u <= 0 {
		t.Fatalf("Usage = %d", u)
	}
	s.SetMaxBytes(u * 10)
	if s.MaxBytes() != u*10 {
		t.Fatalf("MaxBytes = %d", s.MaxBytes())
	}
	// The gauge initializes from the walk, so the next overflowing Put
	// GCs even though earlier Puts predate SetMaxBytes.
	s.SetMaxBytes(u)
	if err := s.Put(FunctionKey("one-more"), testEntry()); err != nil {
		t.Fatal(err)
	}
	if got := s.Usage(); got > u {
		t.Fatalf("usage %d exceeds budget %d after overflow Put", got, u)
	}
}

func TestQuarantineMetricsNil(t *testing.T) {
	// The whole lifecycle must run with a nil metrics registry.
	s, err := Open(t.TempDir(), (*telemetry.Metrics)(nil))
	if err != nil {
		t.Fatal(err)
	}
	keys := putN(t, s, 2)
	corruptEntry(t, s, keys[0], func(b []byte) []byte { return b[:3] })
	if st := s.ScrubOnce(ScrubConfig{}); st.Quarantined != 1 {
		t.Fatalf("scrub with nil metrics: %+v", st)
	}
	s.GC(0)
	if s.Len() != 0 {
		t.Fatal("GC with nil metrics")
	}
}

// TestQuarantineFailedPublishNotCounted: when the final rename into
// quarantine/ fails, Quarantine reports the error and the entry is
// neither counted by store.scrub.quarantined nor seen by QuarantineLen,
// so the two never disagree. The key is out of service either way.
func TestQuarantineFailedPublishNotCounted(t *testing.T) {
	s, m := openTestStore(t)
	keys := putN(t, s, 1)
	// A non-empty directory at the final name makes the rename fail.
	final := filepath.Join(s.Dir(), quarantineDir, keys[0].Hex()+entrySuffix)
	if err := os.MkdirAll(filepath.Join(final, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Quarantine(keys[0], "test"); err == nil {
		t.Fatal("Quarantine over a blocked final name must fail")
	}
	if n := m.Counter(MetricScrubQuarantined); n != 0 {
		t.Fatalf("store.scrub.quarantined = %d after a failed quarantine, want 0", n)
	}
	if n := s.QuarantineLen(); n != 0 {
		t.Fatalf("QuarantineLen = %d after a failed quarantine, want 0", n)
	}
	if s.Contains(keys[0]) {
		t.Fatal("an entry taken out for quarantine must not be served")
	}
}
