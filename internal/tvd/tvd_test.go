package tvd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/proof"
	"repro/internal/telemetry"
	"repro/internal/tv"
)

// testProfile describes a small deterministic corpus shared by the e2e
// tests.
func testProfile(n int) corpus.Profile {
	return corpus.Profile{
		Seed: 7, Functions: n, MeanSize: 2.0, SizeSigma: 0.5,
		LoopWeight: 0.3, BranchWeight: 0.5,
	}
}

func testCorpus(n int) []corpus.Function {
	return corpus.Generate(testProfile(n))
}

// testMaxTermNodes is the batch budget: a deterministic node limit, no
// wall-clock timeout, so classes do not depend on machine speed.
const testMaxTermNodes = 3_000_000

func testBatch(fns []corpus.Function) *BatchRequest {
	req := &BatchRequest{MaxTermNodes: testMaxTermNodes, Proofs: true}
	for _, f := range fns {
		req.Jobs = append(req.Jobs, JobRequest{Fn: f.Name, IR: f.Src})
	}
	return req
}

func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// TestDaemonWarmStart is the tentpole e2e: a cold batch misses the
// store with the class counts of a local run over the same functions,
// the identical warm batch is served entirely from it with
// byte-identical class counts, the store-backed artifacts proofcheck
// clean, and the store survives a daemon restart.
func TestDaemonWarmStart(t *testing.T) {
	storeDir := t.TempDir()
	fns := testCorpus(6)
	req := testBatch(fns)

	s, hs := newTestServer(t, ServerConfig{Workers: 2, StoreDir: storeDir, WorkDir: t.TempDir()})
	c := NewClient(hs.URL)
	if err := c.Health(); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	var coldRows int
	cold, err := c.Validate(req, func(telemetry.Record) { coldRows++ })
	if err != nil {
		t.Fatalf("cold batch: %v", err)
	}
	if coldRows != len(fns) {
		t.Errorf("cold run streamed %d row records, want %d", coldRows, len(fns))
	}
	if cold.StoreHits != 0 || cold.StoreMisses != len(fns) {
		t.Errorf("cold run: %d hits / %d misses, want 0 / %d",
			cold.StoreHits, cold.StoreMisses, len(fns))
	}
	// The daemon changes where validation happens, never what it
	// concludes: a local run of the same functions under the same budget
	// must classify them identically.
	local := harness.Run(harness.Config{
		Profile: testProfile(len(fns)),
		Budget:  tv.Budget{MaxTermNodes: testMaxTermNodes},
		Workers: 2,
	})
	localClasses, _ := json.Marshal(local.ClassCounts())
	if daemonClasses, _ := json.Marshal(cold.Stats.Classes); !bytes.Equal(localClasses, daemonClasses) {
		t.Errorf("daemon classes diverge from a local run: local %s daemon %s", localClasses, daemonClasses)
	}
	for i, row := range cold.Rows {
		if row.Cached {
			t.Errorf("cold row %d (%s) claims cached", i, row.Fn)
		}
		if row.ProofErr != "" {
			t.Errorf("cold row %d (%s): proof error: %s", i, row.Fn, row.ProofErr)
		}
		if row.Key == "" {
			t.Errorf("cold row %d (%s): no content key", i, row.Fn)
		}
		if row.StartedNS < row.SubmittedNS || row.FinishedNS < row.StartedNS {
			t.Errorf("cold row %d (%s): timestamps out of order: %d/%d/%d",
				i, row.Fn, row.SubmittedNS, row.StartedNS, row.FinishedNS)
		}
	}

	warmCached := 0
	warm, err := c.Validate(req, func(rec telemetry.Record) {
		if cached, _ := rec.Attrs["cached"].(bool); cached {
			warmCached++
		}
	})
	if err != nil {
		t.Fatalf("warm batch: %v", err)
	}
	if hitRate := float64(warm.StoreHits) / float64(len(fns)); hitRate < 0.95 {
		t.Fatalf("warm run hit rate %.2f (%d/%d), want >= 0.95",
			hitRate, warm.StoreHits, len(fns))
	}
	if warmCached != warm.StoreHits {
		t.Errorf("warm run streamed %d cached rows, summary says %d hits", warmCached, warm.StoreHits)
	}
	// Byte-identical class counts: the acceptance criterion for the
	// certified-by-reference path.
	coldClasses, _ := json.Marshal(cold.Stats.Classes)
	warmClasses, _ := json.Marshal(warm.Stats.Classes)
	if !bytes.Equal(coldClasses, warmClasses) {
		t.Errorf("class counts diverge: cold %s warm %s", coldClasses, warmClasses)
	}
	for i := range warm.Rows {
		if warm.Rows[i].Class != cold.Rows[i].Class {
			t.Errorf("row %d (%s): cold class %q, warm class %q",
				i, cold.Rows[i].Fn, cold.Rows[i].Class, warm.Rows[i].Class)
		}
		if warm.Rows[i].Certified != cold.Rows[i].Certified {
			t.Errorf("row %d (%s): certified flips cold %t -> warm %t",
				i, cold.Rows[i].Fn, cold.Rows[i].Certified, warm.Rows[i].Certified)
		}
		if warm.Rows[i].Key != cold.Rows[i].Key {
			t.Errorf("row %d: content key unstable: %s vs %s",
				i, cold.Rows[i].Key, warm.Rows[i].Key)
		}
	}

	// The store-served artifacts must stand on their own: materialize the
	// warm batch into a directory and replay every certificate.
	proofDir := t.TempDir()
	if err := MaterializeProofs(proofDir, warm); err != nil {
		t.Fatalf("MaterializeProofs: %v", err)
	}
	report, err := proof.CheckDir(proofDir)
	if err != nil {
		t.Fatalf("CheckDir: %v", err)
	}
	if len(report.Rejections) != 0 {
		t.Fatalf("store-backed proofs rejected (%d), first: %s",
			len(report.Rejections), report.Rejections[0])
	}
	if report.Functions != len(fns) {
		t.Errorf("proofcheck saw %d certificate files, want %d", report.Functions, len(fns))
	}

	snap, err := c.Metricsz()
	if err != nil {
		t.Fatalf("metricsz: %v", err)
	}
	if snap.StoreLen != len(fns) {
		t.Errorf("store holds %d entries, want %d", snap.StoreLen, len(fns))
	}
	if snap.Counters["store.hit"] < int64(warm.StoreHits) {
		t.Errorf("store.hit counter %d < %d warm hits", snap.Counters["store.hit"], warm.StoreHits)
	}
	if snap.Counters["tvd.batches"] != 2 {
		t.Errorf("tvd.batches = %d, want 2", snap.Counters["tvd.batches"])
	}
	s.Close()

	// The store is persistent: a fresh daemon on the same directory is
	// warm from its first request.
	s2, hs2 := newTestServer(t, ServerConfig{Workers: 2, StoreDir: storeDir, WorkDir: t.TempDir()})
	defer s2.Close()
	restart, err := NewClient(hs2.URL).Validate(req, nil)
	if err != nil {
		t.Fatalf("post-restart batch: %v", err)
	}
	if restart.StoreHits != len(fns) {
		t.Errorf("post-restart: %d hits, want %d", restart.StoreHits, len(fns))
	}
	restartClasses, _ := json.Marshal(restart.Stats.Classes)
	if !bytes.Equal(coldClasses, restartClasses) {
		t.Errorf("post-restart class counts diverge: cold %s restart %s", coldClasses, restartClasses)
	}
}

// TestDaemonTrace: a traced batch returns server-side spans that lint
// clean.
func TestDaemonTrace(t *testing.T) {
	s, hs := newTestServer(t, ServerConfig{Workers: 1, WorkDir: t.TempDir()})
	defer s.Close()
	req := testBatch(testCorpus(2))
	req.Proofs = false
	req.Trace = true
	res, err := NewClient(hs.URL).Validate(req, nil)
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("Trace requested but summary carries no spans")
	}
	if err := telemetry.Lint(res.Trace); err != nil {
		t.Fatalf("trace lint: %v", err)
	}
}

// TestDaemonBackpressure: a batch larger than workers+queue is refused
// whole with 429 and a Retry-After header.
func TestDaemonBackpressure(t *testing.T) {
	s, hs := newTestServer(t, ServerConfig{Workers: 1, Queue: 1, WorkDir: t.TempDir()})
	defer s.Close()
	req := testBatch(testCorpus(3)) // maxInflight = 2

	body, _ := json.Marshal(req)
	resp, err := http.Post(hs.URL+PathValidate, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After header %q, want \"1\"", ra)
	}
	var ej ErrorJSON
	if err := json.NewDecoder(resp.Body).Decode(&ej); err != nil {
		t.Fatalf("error body: %v", err)
	}
	if ej.Error == "" || ej.RetryAfterSeconds != 1 {
		t.Errorf("error body %+v, want message and retry_after_seconds=1", ej)
	}

	// The client surfaces the refusal as ErrBusy when its retry budget is
	// exhausted (zero here).
	if _, err := NewClient(hs.URL).Validate(req, nil); err == nil {
		t.Fatal("client accepted a refused batch")
	} else if _, ok := err.(*ErrBusy); !ok {
		t.Fatalf("client error %T (%v), want *ErrBusy", err, err)
	}
}

// TestDaemonTenantBudget: per-tenant token budgets refuse a batch even
// when the global queue has room.
func TestDaemonTenantBudget(t *testing.T) {
	s, hs := newTestServer(t, ServerConfig{
		Workers: 2, Queue: 8, TenantBudget: 2, WorkDir: t.TempDir(),
	})
	defer s.Close()
	req := testBatch(testCorpus(3)) // 3 > TenantBudget 2, but < maxInflight 10
	req.Tenant = "small"
	_, err := NewClient(hs.URL).Validate(req, nil)
	busy, ok := err.(*ErrBusy)
	if !ok {
		t.Fatalf("error %T (%v), want *ErrBusy", err, err)
	}
	if busy.RetryAfter != time.Second {
		t.Errorf("RetryAfter %v, want 1s", busy.RetryAfter)
	}

	// A batch within the budget goes through.
	req2 := testBatch(testCorpus(2))
	req2.Tenant = "small"
	req2.Proofs = false
	if _, err := NewClient(hs.URL).Validate(req2, nil); err != nil {
		t.Fatalf("in-budget batch refused: %v", err)
	}
}

// TestClientChunking: ValidateAll splits a job list larger than the
// daemon's admission capacity into admissible batches and merges the
// results seamlessly — including warm-start store hits on the rerun.
func TestClientChunking(t *testing.T) {
	s, hs := newTestServer(t, ServerConfig{
		Workers: 1, Queue: 1, StoreDir: t.TempDir(), WorkDir: t.TempDir(),
	}) // MaxBatch = 2
	defer s.Close()
	fns := testCorpus(5)
	req := testBatch(fns)
	req.Proofs = false
	c := NewClient(hs.URL)

	// The whole list in one Validate call must be refused...
	if _, err := c.Validate(req, nil); err == nil {
		t.Fatal("oversized batch accepted whole")
	}
	// ...but ValidateAll chunks it through.
	rows := 0
	res, err := c.ValidateAll(req, func(telemetry.Record) { rows++ })
	if err != nil {
		t.Fatalf("ValidateAll: %v", err)
	}
	if rows != len(fns) {
		t.Errorf("streamed %d rows, want %d", rows, len(fns))
	}
	if len(res.Rows) != len(fns) || res.Stats.Functions != len(fns) {
		t.Fatalf("merged %d rows / %d stats functions, want %d",
			len(res.Rows), res.Stats.Functions, len(fns))
	}
	for i, row := range res.Rows {
		if row.Index != i || row.Fn != fns[i].Name {
			t.Errorf("row %d: index %d fn %s, want %d %s", i, row.Index, row.Fn, i, fns[i].Name)
		}
	}
	if res.StoreMisses != len(fns) {
		t.Errorf("cold chunked run: %d misses, want %d", res.StoreMisses, len(fns))
	}
	warm, err := c.ValidateAll(req, nil)
	if err != nil {
		t.Fatalf("warm ValidateAll: %v", err)
	}
	if warm.StoreHits != len(fns) {
		t.Errorf("warm chunked run: %d hits, want %d", warm.StoreHits, len(fns))
	}
	total := 0
	for _, n := range warm.Stats.Classes {
		total += n
	}
	if total != len(fns) {
		t.Errorf("merged class counts sum to %d, want %d", total, len(fns))
	}
}

// TestDaemonDrain: draining turns /healthz and /v1/validate into 503s,
// and Close joins the pool.
func TestDaemonDrain(t *testing.T) {
	s, hs := newTestServer(t, ServerConfig{Workers: 1, WorkDir: t.TempDir()})
	c := NewClient(hs.URL)
	if err := c.Health(); err != nil {
		t.Fatalf("healthz before drain: %v", err)
	}
	s.BeginDrain()
	if err := c.Health(); err == nil {
		t.Fatal("healthz still OK while draining")
	}
	req := testBatch(testCorpus(1))
	if _, err := c.Validate(req, nil); err == nil {
		t.Fatal("batch accepted while draining")
	}
	snap, err := c.Metricsz()
	if err != nil {
		t.Fatalf("metricsz while draining: %v", err)
	}
	if !snap.Draining {
		t.Error("metricsz does not report draining")
	}
	s.Close()
	s.Close() // idempotent
}

// TestJobKey: the content address tracks every semantic input and
// nothing else.
func TestJobKey(t *testing.T) {
	base := JobRequest{Fn: "f", IR: "module"}
	k := JobKey(base, 1000, 50)
	if k != JobKey(base, 1000, 50) {
		t.Fatal("JobKey not deterministic")
	}
	diff := []struct {
		name string
		key  interface{ Hex() string }
	}{
		{"fn", JobKey(JobRequest{Fn: "g", IR: "module"}, 1000, 50)},
		{"ir", JobKey(JobRequest{Fn: "f", IR: "module2"}, 1000, 50)},
		{"merge_stores", JobKey(JobRequest{Fn: "f", IR: "module", MergeStores: true}, 1000, 50)},
		{"nodes", JobKey(base, 2000, 50)},
		{"conflicts", JobKey(base, 1000, 51)},
	}
	seen := map[string]string{k.Hex(): "base"}
	for _, d := range diff {
		if prev, dup := seen[d.key.Hex()]; dup {
			t.Errorf("changing %s collides with %s", d.name, prev)
		}
		seen[d.key.Hex()] = d.name
	}
}

// TestDaemonArtifactsMatchLocalRun: the daemon and a batch run write one
// certificate layout. Each function's artifacts as the daemon returns
// them (a fresh per-job VC cache, no wall budget) must equal, file by
// file and byte by byte, the files a single-function harness.Run writes
// for it.
func TestDaemonArtifactsMatchLocalRun(t *testing.T) {
	fns := testCorpus(3)
	s, hs := newTestServer(t, ServerConfig{Workers: 1, WorkDir: t.TempDir()})
	defer s.Close()
	res, err := NewClient(hs.URL).Validate(testBatch(fns), nil)
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	traces := 0
	for i, f := range fns {
		dir := t.TempDir()
		sum := harness.Run(harness.Config{
			Functions: []corpus.Function{f},
			Budget:    tv.Budget{MaxTermNodes: testMaxTermNodes},
			Workers:   1,
			ProofDir:  dir,
		})
		if sum.ProofErr != nil {
			t.Fatal(sum.ProofErr)
		}
		local := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() == proof.ManifestName {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			local[e.Name()] = data
		}
		row := res.Rows[i]
		if len(row.Artifacts) != len(local) {
			t.Errorf("%s: daemon returned %d artifacts, local run wrote %d files", f.Name, len(row.Artifacts), len(local))
		}
		for _, a := range row.Artifacts {
			if strings.HasSuffix(a.Name, proof.DratSuffix) {
				traces++
			}
			if data, ok := local[a.Name]; !ok || !bytes.Equal(a.Data, data) {
				t.Errorf("%s: daemon artifact %s differs from the local run's file (present %t)", f.Name, a.Name, ok)
			}
		}
	}
	if traces == 0 {
		t.Fatal("no function produced a DRAT trace: the comparison misses the trace files")
	}
}
