package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/isel"
	"repro/internal/paperprogs"
	"repro/internal/smt"
	"repro/internal/tv"
)

func smallRun(t *testing.T) *Summary {
	t.Helper()
	return Run(Config{
		Profile: corpus.Profile{
			Seed: 7, Functions: 8, MeanSize: 2.0, SizeSigma: 0.5,
			MemoryWeight: 0.4, LoopWeight: 0.4, CallWeight: 0.2, BranchWeight: 0.5,
		},
		Budget: tv.Budget{Timeout: 15 * time.Second},
	})
}

func TestRunAndFigure6(t *testing.T) {
	sum := smallRun(t)
	if sum.Total != 8 || len(sum.Rows) != 8 {
		t.Fatalf("total=%d rows=%d", sum.Total, len(sum.Rows))
	}
	counts := sum.Counts()
	if counts[tv.ClassSucceeded] < 6 {
		t.Errorf("only %d/8 succeeded: %v", counts[tv.ClassSucceeded], counts)
	}
	var b strings.Builder
	sum.Figure6(&b)
	out := b.String()
	for _, want := range []string{"Succeeded", "Failed due to timeout",
		"Failed due to out-of-memory", "Other", "Total", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure6 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure7Rendering(t *testing.T) {
	sum := smallRun(t)
	var b strings.Builder
	sum.Figure7(&b)
	out := b.String()
	for _, want := range []string{"Validation time", "median", "Code size", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure7 output missing %q:\n%s", want, out)
		}
	}
}

func TestInadequateEveryProducesOther(t *testing.T) {
	// Coarse liveness may or may not break a given function; the knob just
	// routes functions through the degraded VC generator. Verify it runs
	// end to end without panics and still never misclassifies successes as
	// failures of the harness itself.
	sum := Run(Config{
		Profile: corpus.Profile{
			Seed: 11, Functions: 4, MeanSize: 2.2, SizeSigma: 0.4,
			LoopWeight: 1, BranchWeight: 0.5,
		},
		Budget:          tv.Budget{Timeout: 15 * time.Second},
		InadequateEvery: 2,
	})
	if len(sum.Rows) != 4 {
		t.Fatalf("rows = %d", len(sum.Rows))
	}
}

// parallelProfile is a seeded corpus big enough that a 4-worker pool
// actually interleaves completions, with budgets generous enough that
// every class is timing-independent (deterministic across pool sizes).
var parallelProfile = corpus.Profile{
	Seed: 23, Functions: 24, MeanSize: 2.2, SizeSigma: 0.6,
	MemoryWeight: 0.4, LoopWeight: 0.4, CallWeight: 0.2, BranchWeight: 0.5,
}

func TestParallelRowsDeterministic(t *testing.T) {
	// No wall-clock timeout: under the race detector's slowdown a timed
	// budget classifies timing-dependently. The term-node (OOM) budget is
	// exactly reproducible, so every class here is deterministic.
	budget := tv.Budget{MaxTermNodes: 4_000_000}
	serial := Run(Config{Profile: parallelProfile, Budget: budget, InadequateEvery: 7, Workers: 1})
	parallel := Run(Config{Profile: parallelProfile, Budget: budget, InadequateEvery: 7, Workers: 4})

	if serial.Workers != 1 || parallel.Workers != 4 {
		t.Fatalf("workers recorded as %d and %d, want 1 and 4", serial.Workers, parallel.Workers)
	}
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(serial.Rows), len(parallel.Rows))
	}
	for i := range serial.Rows {
		s, p := serial.Rows[i], parallel.Rows[i]
		if s.Fn != p.Fn || s.Class != p.Class || s.CodeSize != p.CodeSize {
			t.Errorf("row %d differs: serial {%s %v %d} vs parallel {%s %v %d}",
				i, s.Fn, s.Class, s.CodeSize, p.Fn, p.Class, p.CodeSize)
		}
	}
	sc, pc := serial.Counts(), parallel.Counts()
	if fmt.Sprint(sc) != fmt.Sprint(pc) {
		t.Errorf("class counts differ: serial %v vs parallel %v", sc, pc)
	}
	if parallel.CPUTime <= 0 || parallel.WallTime <= 0 {
		t.Errorf("missing time accounting: cpu=%v wall=%v", parallel.CPUTime, parallel.WallTime)
	}
	// Exact query counts are timing-sensitive near the deadline (a query
	// that hits ErrDeadline in one run may never start in another), so
	// only check that aggregation happened on both sides.
	if serial.SMTStats.Queries == 0 || parallel.SMTStats.Queries == 0 {
		t.Errorf("missing aggregated SMT stats: serial %+v parallel %+v",
			serial.SMTStats, parallel.SMTStats)
	}
}

func TestParallelProgressSerialized(t *testing.T) {
	// strings.Builder is not goroutine-safe, so this doubles as a -race
	// check that Progress writes are serialized.
	var b strings.Builder
	sum := Run(Config{
		Profile:  parallelProfile,
		Budget:   tv.Budget{Timeout: time.Minute, MaxTermNodes: 4_000_000},
		Workers:  4,
		Progress: &b,
	})
	lines := strings.Count(b.String(), "\n")
	if lines != sum.Total {
		t.Errorf("progress printed %d lines, want %d:\n%s", lines, sum.Total, b.String())
	}
	if !strings.Contains(b.String(), fmt.Sprintf("%4d/%d", sum.Total, sum.Total)) {
		t.Errorf("progress counter never reached %d/%d:\n%s", sum.Total, sum.Total, b.String())
	}
}

func TestUnparsableFunctionClassifiedOther(t *testing.T) {
	fns := []corpus.Function{
		goodFn("good"),
		{Name: "bad", Src: "define i32 @bad( this does not parse"},
		goodFn("good2"),
	}
	sum := Run(Config{Functions: fns, Budget: tv.Budget{Timeout: time.Minute}, Workers: 2})
	if len(sum.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(sum.Rows))
	}
	bad := sum.Rows[1]
	if bad.Class != tv.ClassOther || bad.Err == nil {
		t.Errorf("bad row: class=%v err=%v, want Other with parse error", bad.Class, bad.Err)
	}
	if bad.Err != nil && !strings.Contains(bad.Err.Error(), "does not parse") {
		t.Errorf("bad row error %q does not mention the parse failure", bad.Err)
	}
	for _, i := range []int{0, 2} {
		if sum.Rows[i].Class != tv.ClassSucceeded {
			t.Errorf("row %d (%s): class=%v err=%v, want Succeeded",
				i, sum.Rows[i].Fn, sum.Rows[i].Class, sum.Rows[i].Err)
		}
	}
}

func TestPanicIsolatedToOneRow(t *testing.T) {
	validateHook = func(i int, f corpus.Function) {
		if f.Name == "poison" {
			panic("injected poison")
		}
	}
	defer func() { validateHook = nil }()

	fns := []corpus.Function{
		goodFn("good"),
		goodFn("poison"),
		goodFn("good2"),
		goodFn("good3"),
	}
	sum := Run(Config{Functions: fns, Budget: tv.Budget{Timeout: time.Minute}, Workers: 4})
	if len(sum.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(sum.Rows))
	}
	counts := sum.Counts()
	if counts[tv.ClassOther] != 1 {
		t.Errorf("want exactly 1 Other row, got %v", counts)
	}
	poison := sum.Rows[1]
	if poison.Fn != "poison" || poison.Class != tv.ClassOther {
		t.Fatalf("poison row = {%s %v}, want {poison Other}", poison.Fn, poison.Class)
	}
	if poison.Err == nil || !strings.Contains(poison.Err.Error(), "injected poison") {
		t.Errorf("poison row error %v does not carry the panic message", poison.Err)
	}
}

// goodFn returns a small corpus function named name that validates
// quickly.
func goodFn(name string) corpus.Function {
	return corpus.Function{Name: name, Src: fmt.Sprintf(`
define i32 @%s(i32 %%a, i32 %%b) {
entry:
  %%cmp = icmp slt i32 %%a, %%b
  br i1 %%cmp, label %%lt, label %%ge

lt:
  %%add = add i32 %%a, %%b
  ret i32 %%add

ge:
  %%sub = sub i32 %%a, %%b
  ret i32 %%sub
}
`, name)}
}

func TestRunBugExperiments(t *testing.T) {
	budget := tv.Budget{Timeout: time.Minute}
	for _, e := range []BugExperiment{
		{
			Name: "waw", Program: paperprogs.WAWStores, Fn: "waw_foo",
			GoodOptions: isel.Options{MergeStores: true},
			BadOptions:  isel.Options{BugWAWStoreMerge: true},
		},
		{
			Name: "narrow", Program: paperprogs.LoadNarrow, Fn: "narrow_foo",
			GoodOptions: isel.Options{},
			BadOptions:  isel.Options{BugLoadNarrow: true},
		},
	} {
		r, err := RunBug(e, budget)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if !r.GoodPassed || !r.BugCaught {
			t.Errorf("%s: good=%v caught=%v", e.Name, r.GoodPassed, r.BugCaught)
		}
	}
}

func TestRenderBugTable(t *testing.T) {
	var b strings.Builder
	RenderBugTable(&b, []*BugResult{
		{Name: "x", GoodPassed: true, BugCaught: true},
		{Name: "y", GoodPassed: false, BugCaught: false},
	})
	out := b.String()
	if !strings.Contains(out, "rejected ✓") || !strings.Contains(out, "MISSED ✗") {
		t.Errorf("table rendering wrong:\n%s", out)
	}
}

func TestHistogramEdges(t *testing.T) {
	var b strings.Builder
	histogram(&b, "t", []float64{0.5, 1, 2, 100}, []float64{1, 10},
		func(v float64) string { return "x" })
	lines := strings.Count(b.String(), "\n")
	if lines != 3 {
		t.Errorf("histogram has %d buckets, want 3:\n%s", lines, b.String())
	}
}

// TestVCCacheParity is the cache-correctness acceptance test: a 4-worker
// run sharing the run-wide VC cache must produce row-for-row identical
// results to a cache-disabled serial run. Only the term-node budget is
// set (no wall clock), so every class is exactly reproducible and a
// cache hit can never move a function across a classification boundary.
func TestVCCacheParity(t *testing.T) {
	budget := tv.Budget{MaxTermNodes: 4_000_000}
	serial := Run(Config{
		Profile: parallelProfile, Budget: budget, InadequateEvery: 7,
		Workers: 1, DisableVCCache: true,
	})
	cached := Run(Config{
		Profile: parallelProfile, Budget: budget, InadequateEvery: 7,
		Workers: 4,
	})

	if serial.SMTStats.CacheHits != 0 || serial.SMTStats.CacheMisses != 0 {
		t.Fatalf("DisableVCCache run still consulted a cache: hits=%d misses=%d",
			serial.SMTStats.CacheHits, serial.SMTStats.CacheMisses)
	}
	if cached.SMTStats.CacheHits == 0 {
		t.Errorf("shared-cache run recorded no hits (misses=%d); corpus too diverse or cache not wired",
			cached.SMTStats.CacheMisses)
	}
	if len(serial.Rows) != len(cached.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(serial.Rows), len(cached.Rows))
	}
	for i := range serial.Rows {
		s, p := serial.Rows[i], cached.Rows[i]
		if s.Fn != p.Fn || s.Class != p.Class || s.CodeSize != p.CodeSize {
			t.Errorf("row %d differs: uncached {%s %v %d} vs cached {%s %v %d}",
				i, s.Fn, s.Class, s.CodeSize, p.Fn, p.Class, p.CodeSize)
		}
	}
	sc, pc := serial.Counts(), cached.Counts()
	if fmt.Sprint(sc) != fmt.Sprint(pc) {
		t.Errorf("class counts differ: uncached %v vs cached %v", sc, pc)
	}
}

// TestVCCachePresetNotOverwritten: a caller-provided cache is used as-is,
// so several Run invocations can share hits across whole corpus runs.
func TestVCCachePresetNotOverwritten(t *testing.T) {
	shared := smt.NewCache()
	budget := tv.Budget{MaxTermNodes: 4_000_000}
	cfg := Config{Profile: parallelProfile, Budget: budget, Workers: 2}
	cfg.Checker.VCCache = shared
	first := Run(cfg)
	entries := shared.Len()
	if entries == 0 {
		t.Fatalf("run with preset cache stored nothing")
	}
	second := Run(cfg)
	if second.SMTStats.CacheHits <= first.SMTStats.CacheHits {
		t.Errorf("second run over a warm cache did not hit more: %d then %d",
			first.SMTStats.CacheHits, second.SMTStats.CacheHits)
	}
	for i := range first.Rows {
		if first.Rows[i].Class != second.Rows[i].Class {
			t.Errorf("row %d class changed across warm-cache reruns: %v vs %v",
				i, first.Rows[i].Class, second.Rows[i].Class)
		}
	}
}

// TestProofDirsReproducible: with no wall budget and no cross-function
// VC cache each function's run is deterministic, and every function
// writes its own artifact set, so proof directories written at 1 and 4
// workers must be identical file by file and byte by byte.
func TestProofDirsReproducible(t *testing.T) {
	emit := func(workers int) map[string][]byte {
		dir := t.TempDir()
		sum := Run(Config{
			Profile:        corpus.GCCLike(6),
			Budget:         tv.Budget{MaxTermNodes: 3_000_000},
			Workers:        workers,
			DisableVCCache: true,
			ProofDir:       dir,
		})
		if sum.ProofErr != nil || sum.CertFailed != 0 {
			t.Fatalf("workers=%d: proof emission failed: %v (%d rows)", workers, sum.ProofErr, sum.CertFailed)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
		return files
	}
	serial, parallel := emit(1), emit(4)
	if len(serial) < 6*2+1 { // certs and terms per function, and the manifest
		t.Fatalf("serial run wrote %d files for 6 functions", len(serial))
	}
	for name, data := range serial {
		other, ok := parallel[name]
		switch {
		case !ok:
			t.Errorf("%s: written at 1 worker, missing at 4", name)
		case !bytes.Equal(data, other):
			t.Errorf("%s: differs between 1 and 4 workers (%d vs %d bytes)", name, len(data), len(other))
		}
	}
	for name := range parallel {
		if _, ok := serial[name]; !ok {
			t.Errorf("%s: written at 4 workers, missing at 1", name)
		}
	}
}
