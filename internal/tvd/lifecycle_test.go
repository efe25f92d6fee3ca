package tvd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/proof"
	"repro/internal/smt"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/tv"
)

// entryFileFor locates the raw on-disk entry file for a row's content
// key — the byte-level tampering point for scrub tests.
func entryFileFor(t *testing.T, storeDir, keyHex string) string {
	t.Helper()
	var found string
	filepath.WalkDir(filepath.Join(storeDir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(filepath.Base(path), keyHex) &&
			strings.HasSuffix(path, ".tve") {
			found = path
		}
		return nil
	})
	if found == "" {
		t.Fatalf("no entry file for key %s under %s", keyHex, storeDir)
	}
	return found
}

// TestDaemonStoreLifecycle is the lifecycle e2e: a GC'd store still
// serves only intact entries with identical verdicts, and a
// semantically tampered entry (valid CRCs, broken certificates — the
// rot only end-to-end replay can catch) is quarantined by ScrubOnce and
// revalidated to the same class afterwards.
func TestDaemonStoreLifecycle(t *testing.T) {
	storeDir := t.TempDir()
	fns := testCorpus(6)
	req := testBatch(fns)

	// Scrub runs in the background throughout (CRC-only, so it cannot
	// quarantine intact entries); the end-to-end pass below is explicit.
	s, hs := newTestServer(t, ServerConfig{
		Workers: 2, StoreDir: storeDir, WorkDir: t.TempDir(),
		ScrubInterval: 20 * time.Millisecond, ScrubSample: 64,
	})
	defer s.Close()
	c := NewClient(hs.URL)

	cold, err := c.Validate(req, nil)
	if err != nil {
		t.Fatalf("cold batch: %v", err)
	}
	coldClasses, _ := json.Marshal(cold.Stats.Classes)
	if s.store.Len() != len(fns) {
		t.Fatalf("store holds %d entries after cold run, want %d", s.store.Len(), len(fns))
	}

	// GC to two thirds of current usage: some entries must go, the rest
	// must stay whole.
	budget := s.store.Usage() * 2 / 3
	res := s.store.GC(budget)
	if res.Evicted == 0 || res.BytesAfter > budget {
		t.Fatalf("GC: %+v under budget %d", res, budget)
	}
	survivors := s.store.Len()
	if survivors == 0 || survivors >= len(fns) {
		t.Fatalf("GC left %d of %d entries; the test needs a partial eviction", survivors, len(fns))
	}

	// Warm run over the GC'd store: exactly the survivors hit, evicted
	// keys revalidate, and the class counts are byte-identical.
	warm, err := c.Validate(req, nil)
	if err != nil {
		t.Fatalf("warm batch: %v", err)
	}
	if warm.StoreHits != survivors {
		t.Fatalf("warm run: %d hits, want %d (the GC survivors)", warm.StoreHits, survivors)
	}
	if warmClasses, _ := json.Marshal(warm.Stats.Classes); !bytes.Equal(coldClasses, warmClasses) {
		t.Fatalf("classes diverge after GC: cold %s warm %s", coldClasses, warmClasses)
	}
	// The mixed hit/revalidated artifact set still replays with zero
	// rejections — GC and scrub never trade away re-checkability.
	proofDir := t.TempDir()
	if err := MaterializeProofs(proofDir, warm); err != nil {
		t.Fatalf("MaterializeProofs: %v", err)
	}
	report, err := proof.CheckDir(proofDir)
	if err != nil {
		t.Fatalf("CheckDir: %v", err)
	}
	if len(report.Rejections) != 0 {
		t.Fatalf("warm-over-GC'd-store proofs rejected (%d), first: %s",
			len(report.Rejections), report.Rejections[0])
	}

	// Semantic tamper: re-encode one entry with a corrupted artifact.
	// The CRCs are freshly computed over the damaged bytes, so Get still
	// hits — only certificate replay can catch this.
	keys := s.store.Keys()
	var tampered store.Key
	var hadArtifacts bool
	for _, k := range keys {
		e, err := s.store.Peek(k)
		if err != nil || len(e.Artifacts) == 0 {
			continue
		}
		for i := range e.Artifacts {
			e.Artifacts[i].Data = []byte("certificate rot")
		}
		if err := s.store.Put(k, e); err != nil {
			t.Fatal(err)
		}
		tampered, hadArtifacts = k, true
		break
	}
	if !hadArtifacts {
		t.Fatal("no stored entry carries artifacts; cannot exercise end-to-end scrub")
	}
	if _, ok := s.store.Get(tampered); !ok {
		t.Fatal("semantic tamper must survive the CRC check (that is the point)")
	}
	st := s.store.ScrubOnce(store.ScrubConfig{Fraction: 1})
	if st.Quarantined != 1 {
		t.Fatalf("ScrubOnce over semantically tampered store: %+v, want 1 quarantined", st)
	}
	if _, ok := s.store.Get(tampered); ok {
		t.Fatal("quarantined entry still served")
	}

	// The quarantined key revalidates on the next run and the batch ends
	// at the same verdicts as the cold run.
	final, err := c.Validate(req, nil)
	if err != nil {
		t.Fatalf("post-scrub batch: %v", err)
	}
	if finalClasses, _ := json.Marshal(final.Stats.Classes); !bytes.Equal(coldClasses, finalClasses) {
		t.Fatalf("classes diverge after quarantine: cold %s final %s", coldClasses, finalClasses)
	}
	snap, err := c.Metricsz()
	if err != nil {
		t.Fatal(err)
	}
	if snap.StoreQuarantined != 1 || snap.StoreBytes <= 0 {
		t.Fatalf("metricsz lifecycle gauges: quarantined=%d bytes=%d", snap.StoreQuarantined, snap.StoreBytes)
	}
}

// TestDaemonStoreBudget: a daemon with -store-max-bytes keeps the store
// under budget across batches via synchronous overflow GC.
func TestDaemonStoreBudget(t *testing.T) {
	storeDir := t.TempDir()
	fns := testCorpus(6)
	req := testBatch(fns)

	// First learn how big the full corpus is on disk.
	s0, hs0 := newTestServer(t, ServerConfig{Workers: 2, StoreDir: storeDir, WorkDir: t.TempDir()})
	if _, err := NewClient(hs0.URL).Validate(req, nil); err != nil {
		t.Fatal(err)
	}
	full := s0.store.Usage()
	s0.Close()

	// A budgeted daemon over the same directory enforces the bound at
	// startup and on every overflowing Put.
	budget := full / 2
	s, hs := newTestServer(t, ServerConfig{
		Workers: 2, StoreDir: storeDir, WorkDir: t.TempDir(),
		StoreMaxBytes: budget, GCInterval: time.Hour, // periodic GC out of the picture
	})
	defer s.Close()
	if u := s.store.Usage(); u > budget {
		t.Fatalf("startup GC left usage %d over budget %d", u, budget)
	}
	if _, err := NewClient(hs.URL).Validate(req, nil); err != nil {
		t.Fatal(err)
	}
	if u := s.store.Usage(); u > budget {
		t.Fatalf("usage %d over budget %d after a refilling batch", u, budget)
	}
	snap, err := NewClient(hs.URL).Metricsz()
	if err != nil {
		t.Fatal(err)
	}
	if snap.StoreMaxBytes != budget || snap.Counters["store.gc.runs"] == 0 {
		t.Fatalf("lifecycle metrics: max_bytes=%d gc.runs=%d", snap.StoreMaxBytes, snap.Counters["store.gc.runs"])
	}
}

// TestDaemonBackgroundScrub: the daemon's background scrubber finds a
// byte-tampered entry on its own and pulls it from service, and Close
// stops the scrubber cleanly.
func TestDaemonBackgroundScrub(t *testing.T) {
	storeDir := t.TempDir()
	s, hs := newTestServer(t, ServerConfig{
		Workers: 2, StoreDir: storeDir, WorkDir: t.TempDir(),
		ScrubInterval: 2 * time.Millisecond, ScrubSample: 64,
	})
	c := NewClient(hs.URL)
	req := testBatch(testCorpus(4))
	res, err := c.Validate(req, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the tail of a stored entry (an artifact body).
	path := entryFileFor(t, storeDir, res.Rows[0].Key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for s.store.QuarantineLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background scrubber never quarantined the tampered entry")
		}
		time.Sleep(2 * time.Millisecond)
	}
	snap, err := c.Metricsz()
	if err != nil {
		t.Fatal(err)
	}
	if snap.StoreQuarantined != 1 || snap.Counters["store.scrub.quarantined"] != 1 {
		t.Fatalf("scrub metrics: gauge=%d counter=%d", snap.StoreQuarantined, snap.Counters["store.scrub.quarantined"])
	}
	s.Close() // must stop the scrubber goroutine and return

	k, err := store.KeyFromHex(res.Rows[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	if s.store.Contains(k) {
		t.Fatal("tampered key still readable after quarantine")
	}
}

// TestScrubRetiresOldDratVersion: an entry whose trace predates the
// current binary DRAT container version (the version just retired) is
// intact as far as the store's CRCs go, so Get
// serves it; end-to-end scrub re-verification rejects the trace and
// quarantines the entry, after which the key is a miss and revalidates
// to the same class with a current trace.
func TestScrubRetiresOldDratVersion(t *testing.T) {
	s, hs := newTestServer(t, ServerConfig{Workers: 2, StoreDir: t.TempDir(), WorkDir: t.TempDir()})
	defer s.Close()
	c := NewClient(hs.URL)
	req := testBatch(testCorpus(4))
	cold, err := c.Validate(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	var old store.Key
	oldIndex := -1
	for i, row := range cold.Rows {
		k, err := store.KeyFromHex(row.Key)
		if err != nil {
			t.Fatal(err)
		}
		e, err := s.store.Peek(k)
		if err != nil {
			continue
		}
		for j, a := range e.Artifacts {
			if strings.HasSuffix(a.Name, proof.DratSuffix) && len(a.Data) > 4 {
				e.Artifacts[j].Data[4] = proof.BinDratVersion - 1 // the version byte
				old, oldIndex = k, i
			}
		}
		if oldIndex >= 0 {
			if err := s.store.Put(k, e); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if oldIndex < 0 {
		t.Fatal("no stored entry carries a DRAT trace")
	}
	if _, ok := s.store.Get(old); !ok {
		t.Fatal("an old-version trace must pass the store's own CRC check")
	}
	if err := store.VerifyEntry(mustPeek(t, s.store, old)); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("binary drat version %d", proof.BinDratVersion-1)) {
		t.Fatalf("VerifyEntry of a retired-version trace: %v, want a version rejection", err)
	}
	st := s.store.ScrubOnce(store.ScrubConfig{Fraction: 1})
	if st.Quarantined != 1 || st.BadVersion != 0 {
		t.Fatalf("ScrubOnce over a retired-version trace: %+v, want 1 quarantined", st)
	}
	if _, ok := s.store.Get(old); ok {
		t.Fatal("quarantined old-version entry still served")
	}
	warm, err := c.Validate(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Rows[oldIndex].Cached || warm.Rows[oldIndex].Class != cold.Rows[oldIndex].Class {
		t.Fatalf("row %d after quarantine: cached=%v class %q, want a revalidated %q",
			oldIndex, warm.Rows[oldIndex].Cached, warm.Rows[oldIndex].Class, cold.Rows[oldIndex].Class)
	}
	if err := store.VerifyEntry(mustPeek(t, s.store, old)); err != nil {
		t.Fatalf("revalidated entry does not verify: %v", err)
	}
}

func mustPeek(t *testing.T, st *store.Store, k store.Key) *store.Entry {
	t.Helper()
	e, err := st.Peek(k)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestProofDirFailure: when per-job proof directories cannot be
// created, the batch still validates (uncertified) and every row
// surfaces the creation error in proof_err — the operator-visible
// signal that certificates are silently missing.
func TestProofDirFailure(t *testing.T) {
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, hs := newTestServer(t, ServerConfig{Workers: 1, WorkDir: notADir})
	defer s.Close()
	fns := testCorpus(2)
	res, err := NewClient(hs.URL).Validate(testBatch(fns), nil)
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for i, row := range res.Rows {
		if row.Class == "" {
			t.Errorf("row %d (%s): no verdict — proof-dir failure must not fail validation", i, row.Fn)
		}
		if row.Certified {
			t.Errorf("row %d (%s): certified without a proof dir", i, row.Fn)
		}
		if row.ProofErr == "" {
			t.Errorf("row %d (%s): proof-dir creation failure not surfaced in proof_err", i, row.Fn)
		}
	}
	if res.Stats.CertFailed != len(fns) {
		t.Errorf("CertFailed = %d, want %d", res.Stats.CertFailed, len(fns))
	}
	snap, err := NewClient(hs.URL).Metricsz()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["tvd.proofdir_fail"] != int64(len(fns)) {
		t.Errorf("tvd.proofdir_fail = %d, want %d", snap.Counters["tvd.proofdir_fail"], len(fns))
	}
}

// TestDrainAdmissionRace hammers the Close/admission ordering: every
// request either completes normally or is refused with 503 — never
// admitted into a pool that Close already joined. handleValidate checks
// the drain flag and registers with the in-flight group under one lock
// that BeginDrain also takes, which is what makes Close's wait cover
// late-arriving batches (and keeps the race detector quiet).
func TestDrainAdmissionRace(t *testing.T) {
	s, hs := newTestServer(t, ServerConfig{Workers: 2, WorkDir: t.TempDir()})
	req := testBatch(testCorpus(1))
	req.Proofs = false
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			_, err := NewClient(hs.URL).Validate(req, nil)
			done <- err
		}()
	}
	time.Sleep(time.Millisecond)
	s.Close()
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil && !strings.Contains(err.Error(), "draining") {
			t.Errorf("request during drain: %v (want success or a draining 503)", err)
		}
	}
}

// TestChunkedTraceLint: a traced ValidateAll over multiple batches
// yields one merged trace with globally unique, properly nested span
// IDs — the concatenation re-bases every batch's IDs. Streamed row
// records share the re-based ID space and must not collide either.
func TestChunkedTraceLint(t *testing.T) {
	s, hs := newTestServer(t, ServerConfig{
		Workers: 1, Queue: 1, WorkDir: t.TempDir(),
	}) // MaxBatch = 2 -> 5 jobs = 3 batches
	defer s.Close()
	req := testBatch(testCorpus(5))
	req.Proofs = false
	req.Trace = true

	seen := map[telemetry.SpanID]bool{}
	res, err := NewClient(hs.URL).ValidateAll(req, func(rec telemetry.Record) {
		if seen[rec.ID] {
			t.Errorf("streamed row span id %d duplicated across batches", rec.ID)
		}
		seen[rec.ID] = true
	})
	if err != nil {
		t.Fatalf("ValidateAll: %v", err)
	}
	if len(seen) != 5 {
		t.Errorf("streamed %d distinct row ids, want 5", len(seen))
	}
	if len(res.Trace) == 0 {
		t.Fatal("traced chunked run returned no spans")
	}
	if err := telemetry.Lint(res.Trace); err != nil {
		t.Fatalf("merged multi-batch trace fails lint: %v", err)
	}
}

// TestMergeStatsChunkParity: merging the wire form of two half-batches
// marshals byte-identically to the one-batch StatsJSON — headline
// fields, every counter (solver totals included), and every histogram,
// so quantiles survive chunking.
func TestMergeStatsChunkParity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	whole := telemetry.NewMetrics()
	chunks := [2]*telemetry.Metrics{telemetry.NewMetrics(), telemetry.NewMetrics()}
	for i := 0; i < 400; i++ {
		m := chunks[i%2]
		d := time.Duration(rng.Int63n(int64(time.Second)))
		alloc := rng.Int63n(1 << 20)
		st := smt.Stats{Queries: rng.Int63n(50), SATConflicts: rng.Int63n(1e4),
			CubesRefuted: rng.Int63n(4), SolveDuration: d}
		for _, r := range []*telemetry.Metrics{whole, m} {
			r.Observe("smt.query", d)
			r.ObserveVal("mem.check", alloc)
			r.Add("tvd.jobs", 1)
			st.Record(r)
		}
	}
	mk := func(scale int, m *telemetry.Metrics) *harness.StatsJSON {
		sum := &harness.Summary{Total: scale, Workers: 2, Metrics: m,
			WallTime: time.Duration(scale) * time.Second, CPUTime: time.Duration(2*scale) * time.Second}
		for i := 0; i < scale; i++ {
			sum.Rows = append(sum.Rows, harness.ResultRow{Class: tv.ClassSucceeded, Certified: true})
		}
		sum.Certified = scale
		return sum.StatsJSON()
	}
	merged := &harness.StatsJSON{Classes: map[string]int{}}
	for i, c := range []*harness.StatsJSON{mk(3, chunks[0]), mk(4, chunks[1])} {
		// Each chunk crosses the wire before it is merged.
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var wire harness.StatsJSON
		if err := json.Unmarshal(b, &wire); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		mergeStats(merged, &wire)
	}
	got, _ := json.Marshal(merged)
	want, _ := json.Marshal(mk(7, whole))
	if !bytes.Equal(got, want) {
		t.Fatalf("chunked stats diverge from unchunked:\nchunked: %s\nwhole:   %s", got, want)
	}
	if !bytes.Contains(want, []byte(`"smt.query":{"count":400`)) {
		t.Fatalf("stats carry no smt.query histogram: %s", want)
	}
}
