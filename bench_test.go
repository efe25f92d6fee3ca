// Package repro's benchmarks regenerate every table and figure of the
// paper's evaluation (§5), plus ablations of the design choices called out
// in DESIGN.md. Run them with:
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the corresponding table/series once (on the first
// iteration) and reports the usual ns/op for the underlying workload.
package repro

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/imp"
	"repro/internal/isel"
	"repro/internal/llvmir"
	"repro/internal/paperprogs"
	"repro/internal/proof"
	"repro/internal/regalloc"
	"repro/internal/smt"
	"repro/internal/stack"
	"repro/internal/telemetry"
	"repro/internal/tv"
	"repro/internal/tvd"
	"repro/internal/vcgen"
	"repro/internal/vx86"
)

func mustMod(b *testing.B, src string) *llvmir.Module {
	b.Helper()
	m, err := llvmir.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

var benchBudget = tv.Budget{Timeout: 30 * time.Second}

// BenchmarkFig3RunningExample validates the paper's Figures 1–3 example:
// arithm_seq_sum through ISel, VC generation, and KEQ.
func BenchmarkFig3RunningExample(b *testing.B) {
	mod := mustMod(b, paperprogs.ArithmSeqSum)
	for i := 0; i < b.N; i++ {
		out := tv.Validate(mod, "arithm_seq_sum", isel.Options{}, vcgen.Options{},
			core.Options{}, benchBudget)
		if out.Class != tv.ClassSucceeded {
			b.Fatalf("class = %v err = %v", out.Class, out.Err)
		}
	}
}

// figure6Corpus is the scaled-down corpus used by the Fig. 6/7 benchmarks:
// large enough to show the outcome mix, small enough for a bench run.
const figure6Corpus = 120

var (
	fig6Once sync.Once
	fig6Sum  *harness.Summary
)

func runFig6Corpus() *harness.Summary {
	fig6Once.Do(func() {
		fig6Sum = harness.Run(harness.Config{
			Profile:         corpus.GCCLike(figure6Corpus),
			Budget:          tv.Budget{Timeout: 5 * time.Second, MaxTermNodes: 3_000_000},
			InadequateEvery: 40,
		})
	})
	return fig6Sum
}

// BenchmarkFig6Validation regenerates the Figure 6 outcome table
// (Succeeded / Timeout / OOM / Other) on the synthetic GCC-like corpus.
func BenchmarkFig6Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum := runFig6Corpus()
		if i == 0 {
			sum.Figure6(os.Stdout)
		}
	}
}

// fig6ParallelBudget is the budget for the worker-pool benchmark: no
// wall-clock timeout (timeout classes are timing-dependent and would
// break the cross-j comparison), only the deterministic term-node limit.
var fig6ParallelBudget = tv.Budget{MaxTermNodes: 3_000_000}

var (
	fig6BaseOnce   sync.Once
	fig6BaseCounts string
)

// fig6BaselineCounts runs the bench corpus serially once and returns the
// Figure 6 class counts every parallel run must reproduce exactly. The
// comparison form is fmt.Sprint of Summary.ClassCounts() — string-keyed,
// so the rendering is ordered lexically and matches the JSON artifacts.
func fig6BaselineCounts() string {
	fig6BaseOnce.Do(func() {
		sum := harness.Run(harness.Config{
			Profile:         corpus.GCCLike(figure6Corpus),
			Budget:          fig6ParallelBudget,
			InadequateEvery: 40,
			Workers:         1,
		})
		fig6BaseCounts = fmt.Sprint(sum.ClassCounts())
	})
	return fig6BaseCounts
}

// BenchmarkFig6ParallelWorkers regenerates the Figure 6 corpus run across
// worker-pool sizes (-j 1/2/4/8). Each run must produce class counts
// byte-identical to the serial baseline — the pool only changes wall-clock
// time, reported alongside the achieved cpu/wall speedup.
func BenchmarkFig6ParallelWorkers(b *testing.B) {
	base := fig6BaselineCounts()
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sum := harness.Run(harness.Config{
					Profile:         corpus.GCCLike(figure6Corpus),
					Budget:          fig6ParallelBudget,
					InadequateEvery: 40,
					Workers:         j,
				})
				if got := fmt.Sprint(sum.ClassCounts()); got != base {
					b.Fatalf("j=%d class counts diverged from serial run:\n got %s\nwant %s", j, got, base)
				}
				b.ReportMetric(sum.Speedup(), "cpu/wall")
			}
		})
	}
}

// BenchmarkFig7Distributions regenerates the Figure 7 validation-time and
// code-size distributions from the same corpus run.
func BenchmarkFig7Distributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum := runFig6Corpus()
		if i == 0 {
			sum.Figure7(os.Stdout)
		}
	}
}

// BenchmarkFig8WAWBug regenerates the §5.2 write-after-write store-merge
// study (Figures 8/9): the correct merge validates, the buggy one is
// rejected.
func BenchmarkFig8WAWBug(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.RunBug(harness.BugExperiment{
			Name:        "WAW store merge",
			Program:     paperprogs.WAWStores,
			Fn:          "waw_foo",
			GoodOptions: isel.Options{MergeStores: true},
			BadOptions:  isel.Options{BugWAWStoreMerge: true},
		}, benchBudget)
		if err != nil || !r.BugCaught || !r.GoodPassed {
			b.Fatalf("bug experiment failed: %+v err=%v", r, err)
		}
		if i == 0 {
			harness.RenderBugTable(os.Stdout, []*harness.BugResult{r})
		}
	}
}

// BenchmarkFig10LoadNarrowBug regenerates the §5.2 load-narrowing study
// (Figures 10/11).
func BenchmarkFig10LoadNarrowBug(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.RunBug(harness.BugExperiment{
			Name:        "Load narrowing",
			Program:     paperprogs.LoadNarrow,
			Fn:          "narrow_foo",
			GoodOptions: isel.Options{},
			BadOptions:  isel.Options{BugLoadNarrow: true},
		}, benchBudget)
		if err != nil || !r.BugCaught || !r.GoodPassed {
			b.Fatalf("bug experiment failed: %+v err=%v", r, err)
		}
		if i == 0 {
			harness.RenderBugTable(os.Stdout, []*harness.BugResult{r})
		}
	}
}

// ablationCorpus returns a fixed slice of corpus functions reused by the
// ablation benchmarks.
func ablationCorpus(b *testing.B, n int) []corpus.Function {
	b.Helper()
	return corpus.Generate(corpus.GCCLike(n))
}

func runAblation(b *testing.B, opts core.Options) {
	fns := ablationCorpus(b, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fns {
			mod := mustMod(b, f.Src)
			out := tv.Validate(mod, f.Name, isel.Options{}, vcgen.Options{}, opts,
				tv.Budget{Timeout: 20 * time.Second})
			if out.Class != tv.ClassSucceeded && out.Class != tv.ClassTimeout {
				b.Fatalf("%s: %v (%v)", f.Name, out.Class, out.Err)
			}
		}
	}
}

// BenchmarkAblationPositiveForm measures validation with the paper's §3
// positive-form SMT query optimization (the default configuration).
func BenchmarkAblationPositiveForm(b *testing.B) {
	runAblation(b, core.Options{})
}

// BenchmarkAblationNegativeForm is the ablation: the naive φ1 ∧ ¬φ2 query
// form the paper found Z3 to handle poorly.
func BenchmarkAblationNegativeForm(b *testing.B) {
	runAblation(b, core.Options{DisablePositiveForm: true, DisablePCFastPath: true})
}

// BenchmarkAblationNoPCFastPath disables only the syntactic
// path-condition-equality shortcut.
func BenchmarkAblationNoPCFastPath(b *testing.B) {
	runAblation(b, core.Options{DisablePCFastPath: true})
}

// BenchmarkCrossLang validates the IMP→stack-machine compiler with the
// same checker — the language-parametricity claim as a benchmark.
func BenchmarkCrossLang(b *testing.B) {
	prog, err := imp.Parse(`
input a, b
a := (a | 1)
b := (b | 1)
while ((a == b) == 0) {
  if (a < b) {
    b := (b - a)
  } else {
    a := (a - b)
  }
}
return a
`)
	if err != nil {
		b.Fatal(err)
	}
	compiled := stack.Compile(prog, stack.Options{})
	points := stack.SyncPoints(prog)
	for i := 0; i < b.N; i++ {
		ctx := smt.NewContext()
		solver := smt.NewSolver(ctx)
		ck := core.NewChecker(solver, imp.NewSem(ctx, prog), stack.NewSem(ctx, compiled), core.Options{})
		rep, err := ck.Run(points)
		if err != nil || rep.Verdict != core.Validated {
			b.Fatalf("verdict %v err %v", rep.Verdict, err)
		}
	}
}

// BenchmarkRefinementUB measures the §4.6 undefined-behavior path: the nsw
// program validates via the acceptability relation's silent degradation to
// refinement.
func BenchmarkRefinementUB(b *testing.B) {
	mod := mustMod(b, paperprogs.NSWExample)
	for i := 0; i < b.N; i++ {
		out := tv.Validate(mod, "nsw_example", isel.Options{}, vcgen.Options{},
			core.Options{}, benchBudget)
		if out.Class != tv.ClassSucceeded {
			b.Fatalf("class = %v", out.Class)
		}
	}
}

// BenchmarkSMTSolver isolates the SMT substrate on a representative VC
// query shape: memory equality between reordered store chains.
func BenchmarkSMTSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := smt.NewContext()
		s := smt.NewSolver(ctx)
		m := ctx.VarMem("M")
		a := ctx.VarBV("a", 64)
		v1 := ctx.VarBV("v1", 8)
		v2 := ctx.VarBV("v2", 8)
		m1 := ctx.Store(ctx.Store(m, a, v1), ctx.Add(a, ctx.BV(1, 64)), v2)
		m2 := ctx.Store(ctx.Store(m, ctx.Add(a, ctx.BV(1, 64)), v2), a, v1)
		proved, _, err := s.Prove(ctx.Eq(m1, m2))
		if err != nil || !proved {
			b.Fatalf("proved=%v err=%v", proved, err)
		}
	}
}

// BenchmarkISel isolates the compiler itself.
func BenchmarkISel(b *testing.B) {
	mod := mustMod(b, paperprogs.ArithmSeqSum)
	fn := mod.Func("arithm_seq_sum")
	for i := 0; i < b.N; i++ {
		if _, err := isel.Compile(mod, fn, isel.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchSanity keeps `go test ./...` meaningful at the repository root:
// the running example must validate and both bugs must be caught.
func TestBenchSanity(t *testing.T) {
	mod, err := llvmir.Parse(paperprogs.ArithmSeqSum)
	if err != nil {
		t.Fatal(err)
	}
	out := tv.Validate(mod, "arithm_seq_sum", isel.Options{}, vcgen.Options{},
		core.Options{}, benchBudget)
	if out.Class != tv.ClassSucceeded {
		t.Fatalf("running example: %v (%v)", out.Class, out.Err)
	}
	fmt.Printf("running example validated in %v with %d sync points\n",
		out.Duration.Round(time.Millisecond), out.Points)
}

// BenchmarkAblationColdSMT disables incremental SMT solving: every query
// cold-starts a fresh SAT instance, the situation the paper's §5.1
// identifies as a major source of its timeout tail.
func BenchmarkAblationColdSMT(b *testing.B) {
	runAblation(b, core.Options{DisableIncrementalSMT: true})
}

// BenchmarkStrengthReduction validates the §4.7 "challenging validation"
// class: division/multiplication strength reductions, which the paper
// reports Z3 struggles with; the bit-blasting backend proves them
// directly.
func BenchmarkStrengthReduction(b *testing.B) {
	mod := mustMod(b, `
define i32 @sr(i32 %x, i32 %y) {
entry:
  %a = mul i32 %x, 8
  %b = udiv i32 %a, 4
  %c = urem i32 %b, 16
  %d = udiv i32 %y, 3
  %e = add i32 %c, %d
  ret i32 %e
}`)
	for i := 0; i < b.N; i++ {
		out := tv.Validate(mod, "sr", isel.Options{StrengthReduce: true},
			vcgen.Options{}, core.Options{}, benchBudget)
		if out.Class != tv.ClassSucceeded {
			b.Fatalf("class = %v err = %v", out.Class, out.Err)
		}
	}
}

// BenchmarkRegAllocValidation validates the register-allocation pass
// (the paper's "ongoing work"): Virtual x86 on both sides of the same
// checker, vregs against frame slots.
func BenchmarkRegAllocValidation(b *testing.B) {
	mod := mustMod(b, paperprogs.ArithmSeqSum)
	res, err := isel.Compile(mod, mod.Func("arithm_seq_sum"), isel.Options{})
	if err != nil {
		b.Fatal(err)
	}
	alloc, err := regalloc.Allocate(res.Fn, regalloc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	points, err := regalloc.SyncPoints(res.Fn, alloc)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ctx := smt.NewContext()
		solver := smt.NewSolver(ctx)
		layout := llvmir.BuildLayout(mod, mod.Func("arithm_seq_sum"))
		ck := core.NewChecker(solver,
			vx86.NewSem(ctx, res.Fn, layout),
			vx86.NewSem(ctx, alloc.Fn, layout),
			core.Options{})
		rep, err := ck.Run(points)
		if err != nil || rep.Verdict != core.Validated {
			b.Fatalf("verdict %v err %v", rep.Verdict, err)
		}
	}
}

// figure6Config builds the canonical Fig. 6 bench configuration; cache
// toggles only the run-wide VC result cache, everything else held fixed.
func figure6Config(workers int, cache bool) harness.Config {
	return harness.Config{
		Profile:         corpus.GCCLike(figure6Corpus),
		Budget:          fig6ParallelBudget,
		InadequateEvery: 40,
		Workers:         workers,
		DisableVCCache:  !cache,
	}
}

// BenchmarkFigure6 compares the Figure 6 corpus run across the solver
// configurations: with and without the shared VC result cache, with
// proof-certificate emission on top of the cached configuration, and with
// span tracing on top of that. Class counts must match the serial
// baseline in every configuration — neither the cache, proof logging, nor
// tracing may change verdicts, only time. The cache=on runs report
// hit-rate metrics, the proofs=on runs certificate counts, the trace=on
// runs span counts, next to ns/op.
func BenchmarkFigure6(b *testing.B) {
	base := fig6BaselineCounts()
	const workers = 4
	for _, mode := range []struct {
		name   string
		cache  bool
		proofs bool
		trace  bool
	}{
		{"cache=off", false, false, false},
		{"cache=on", true, false, false},
		{"proofs=on", true, true, false},
		{"trace=on", true, false, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := figure6Config(workers, mode.cache)
				if mode.proofs {
					cfg.ProofDir = b.TempDir()
				}
				var tracer *telemetry.Tracer
				if mode.trace {
					tracer = telemetry.NewTracer()
					cfg.Tracer = tracer
				}
				sum := harness.Run(cfg)
				if sum.ProofErr != nil {
					b.Fatal(sum.ProofErr)
				}
				if got := fmt.Sprint(sum.ClassCounts()); got != base {
					b.Fatalf("%s class counts diverged from serial baseline:\n got %s\nwant %s",
						mode.name, got, base)
				}
				if mode.trace {
					b.ReportMetric(float64(tracer.Len()), "spans")
				} else if mode.proofs {
					b.ReportMetric(float64(sum.SMTStats.Certificates), "certs")
					b.ReportMetric(float64(sum.Certified), "certified")
				} else if mode.cache {
					hits, misses := sum.SMTStats.CacheHits, sum.SMTStats.CacheMisses
					if hits+misses > 0 {
						b.ReportMetric(float64(hits), "hits")
						b.ReportMetric(100*float64(hits)/float64(hits+misses), "hit%")
					}
				}
			}
		})
	}
}

// TestBenchPR2JSON writes the machine-readable benchmark artifact
// BENCH_PR2.json (the `make bench` target). Gated behind WRITE_BENCH_JSON
// so plain `go test ./...` stays fast and side-effect free.
func TestBenchPR2JSON(t *testing.T) {
	if os.Getenv("WRITE_BENCH_JSON") == "" {
		t.Skip("set WRITE_BENCH_JSON=1 to write BENCH_PR2.json")
	}
	const workers = 4
	type configResult struct {
		WallSeconds float64 `json:"wall_seconds"`
		CPUSeconds  float64 `json:"cpu_seconds"`
		CacheHits   int64   `json:"cache_hits"`
		CacheMisses int64   `json:"cache_misses"`
		// Counts is a real JSON object ({"Succeeded": 119, ...}), not a
		// stringified Go map.
		Counts map[string]int `json:"class_counts"`
	}
	measure := func(cache bool) configResult {
		start := time.Now()
		sum := harness.Run(figure6Config(workers, cache))
		return configResult{
			WallSeconds: time.Since(start).Seconds(),
			CPUSeconds:  sum.CPUTime.Seconds(),
			CacheHits:   sum.SMTStats.CacheHits,
			CacheMisses: sum.SMTStats.CacheMisses,
			Counts:      sum.ClassCounts(),
		}
	}
	// Warm the process (page cache, JIT-free but first-run allocator noise)
	// with the baseline, which also pins the expected class counts.
	base := fig6BaselineCounts()
	off := measure(false)
	on := measure(true)
	if fmt.Sprint(off.Counts) != base || fmt.Sprint(on.Counts) != base {
		t.Fatalf("class counts diverged: baseline %s, cache-off %v, cache-on %v",
			base, off.Counts, on.Counts)
	}
	artifact := struct {
		Benchmark string       `json:"benchmark"`
		Corpus    int          `json:"corpus_functions"`
		Workers   int          `json:"workers"`
		CacheOff  configResult `json:"cache_off"`
		CacheOn   configResult `json:"cache_on"`
		Speedup   float64      `json:"wall_speedup_cache_on"`
	}{
		Benchmark: "Figure6",
		Corpus:    figure6Corpus,
		Workers:   workers,
		CacheOff:  off,
		CacheOn:   on,
		Speedup:   off.WallSeconds / on.WallSeconds,
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_PR2.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("BENCH_PR2.json: cache off %.2fs, on %.2fs (%.2fx), %d hits / %d misses",
		off.WallSeconds, on.WallSeconds, artifact.Speedup, on.CacheHits, on.CacheMisses)
}

// TestBenchPR3JSON writes the proof-certificate overhead artifact
// BENCH_PR3.json (the `make bench` target): the Figure 6 corpus run with
// certificate emission off and on, at the same worker count and with the
// VC cache enabled in both. Class counts must be byte-identical — proof
// logging may never change verdicts — and the emitted directory must pass
// the independent proofcheck verifier with zero rejections. The wall-clock
// ratio is recorded against the <=1.3x overhead target. Gated behind
// WRITE_BENCH_JSON like TestBenchPR2JSON.
func TestBenchPR3JSON(t *testing.T) {
	if os.Getenv("WRITE_BENCH_JSON") == "" {
		t.Skip("set WRITE_BENCH_JSON=1 to write BENCH_PR3.json")
	}
	const workers = 4
	type configResult struct {
		WallSeconds  float64        `json:"wall_seconds"`
		CPUSeconds   float64        `json:"cpu_seconds"`
		Certificates int64          `json:"certificates"`
		ProofBytes   int64          `json:"proof_bytes"`
		Certified    int            `json:"functions_certified"`
		Counts       map[string]int `json:"class_counts"`
	}
	measure := func(proofDir string) configResult {
		cfg := figure6Config(workers, true)
		cfg.ProofDir = proofDir
		start := time.Now()
		sum := harness.Run(cfg)
		if sum.ProofErr != nil {
			t.Fatal(sum.ProofErr)
		}
		return configResult{
			WallSeconds:  time.Since(start).Seconds(),
			CPUSeconds:   sum.CPUTime.Seconds(),
			Certificates: sum.SMTStats.Certificates,
			ProofBytes:   sum.SMTStats.ProofBytes,
			Certified:    sum.Certified,
			Counts:       sum.ClassCounts(),
		}
	}
	base := fig6BaselineCounts()
	off := measure("")
	proofDir := t.TempDir()
	on := measure(proofDir)
	if fmt.Sprint(off.Counts) != base || fmt.Sprint(on.Counts) != base {
		t.Fatalf("class counts diverged: baseline %s, proofs-off %v, proofs-on %v",
			base, off.Counts, on.Counts)
	}
	report, err := proof.CheckDir(proofDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rejections) != 0 {
		t.Fatalf("proofcheck rejected %d certificates, first: %s",
			len(report.Rejections), report.Rejections[0])
	}
	ratio := on.WallSeconds / off.WallSeconds
	artifact := struct {
		Benchmark     string       `json:"benchmark"`
		Corpus        int          `json:"corpus_functions"`
		Workers       int          `json:"workers"`
		ProofsOff     configResult `json:"proofs_off"`
		ProofsOn      configResult `json:"proofs_on"`
		WallRatio     float64      `json:"wall_ratio_proofs_on"`
		RatioTarget   float64      `json:"wall_ratio_target"`
		CheckQueries  int          `json:"proofcheck_queries"`
		CheckSteps    int          `json:"proofcheck_trace_steps"`
		CheckWitness  int          `json:"proofcheck_witnesses"`
		CheckRejected int          `json:"proofcheck_rejections"`
	}{
		Benchmark:    "Figure6-proofs",
		Corpus:       figure6Corpus,
		Workers:      workers,
		ProofsOff:    off,
		ProofsOn:     on,
		WallRatio:    ratio,
		RatioTarget:  1.3,
		CheckQueries: report.Queries,
		CheckSteps:   report.Steps,
		CheckWitness: report.Witnesses,
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_PR3.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("BENCH_PR3.json: proofs off %.2fs, on %.2fs (%.2fx, target <=1.30x), %d certs, %d trace bytes, %d/%d certified",
		off.WallSeconds, on.WallSeconds, ratio, on.Certificates, on.ProofBytes, on.Certified, figure6Corpus)
	if ratio > 1.3 {
		t.Errorf("proof logging overhead %.2fx exceeds 1.3x wall-clock target", ratio)
	}
}

// BenchmarkAblationNoVCCache is the EXPERIMENTS.md ablation row for the
// run-wide VC result cache.
func BenchmarkAblationNoVCCache(b *testing.B) {
	// tv.Validate creates a fresh solver per function with no shared
	// cache, so the per-function ablation baseline is runAblation itself;
	// what this row measures is a corpus run with the harness cache off.
	base := fig6BaselineCounts()
	for i := 0; i < b.N; i++ {
		sum := harness.Run(figure6Config(4, false))
		if got := fmt.Sprint(sum.ClassCounts()); got != base {
			b.Fatalf("counts diverged: got %s want %s", got, base)
		}
	}
}

// TestBenchPR5JSON writes the telemetry overhead artifact BENCH_PR5.json
// (the `make bench` target): the Figure 6 corpus run untraced and traced,
// same workers and cache in both. Class counts must be byte-identical —
// tracing may never change verdicts — the trace must lint clean, and the
// wall-clock ratio is recorded against a <=1.10x overhead target. Gated
// behind WRITE_BENCH_JSON like the other artifact writers.
func TestBenchPR5JSON(t *testing.T) {
	if os.Getenv("WRITE_BENCH_JSON") == "" {
		t.Skip("set WRITE_BENCH_JSON=1 to write BENCH_PR5.json")
	}
	const workers = 4
	type configResult struct {
		WallSeconds float64        `json:"wall_seconds"`
		CPUSeconds  float64        `json:"cpu_seconds"`
		Spans       int            `json:"spans"`
		Counts      map[string]int `json:"class_counts"`
	}
	measure := func(tracer *telemetry.Tracer) configResult {
		cfg := figure6Config(workers, true)
		cfg.Tracer = tracer
		start := time.Now()
		sum := harness.Run(cfg)
		return configResult{
			WallSeconds: time.Since(start).Seconds(),
			CPUSeconds:  sum.CPUTime.Seconds(),
			Spans:       tracer.Len(),
			Counts:      sum.ClassCounts(),
		}
	}
	base := fig6BaselineCounts()
	off := measure(nil)
	tracer := telemetry.NewTracer()
	on := measure(tracer)
	if fmt.Sprint(off.Counts) != base || fmt.Sprint(on.Counts) != base {
		t.Fatalf("class counts diverged: baseline %s, untraced %v, traced %v",
			base, off.Counts, on.Counts)
	}
	if err := telemetry.Lint(tracer.Records()); err != nil {
		t.Fatalf("trace lint: %v", err)
	}
	smtQueries := int64(0)
	for _, r := range tracer.Records() {
		if r.Name == "smt.query" {
			smtQueries++
		}
	}
	ratio := on.WallSeconds / off.WallSeconds
	artifact := struct {
		Benchmark     string       `json:"benchmark"`
		Corpus        int          `json:"corpus_functions"`
		Workers       int          `json:"workers"`
		Untraced      configResult `json:"untraced"`
		Traced        configResult `json:"traced"`
		WallRatio     float64      `json:"wall_ratio_traced"`
		RatioTarget   float64      `json:"wall_ratio_target"`
		SMTQuerySpans int64        `json:"smt_query_spans"`
	}{
		Benchmark:     "Figure6-telemetry",
		Corpus:        figure6Corpus,
		Workers:       workers,
		Untraced:      off,
		Traced:        on,
		WallRatio:     ratio,
		RatioTarget:   1.10,
		SMTQuerySpans: smtQueries,
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_PR5.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("BENCH_PR5.json: untraced %.2fs, traced %.2fs (%.2fx, target <=1.10x), %d spans (%d smt.query)",
		off.WallSeconds, on.WallSeconds, ratio, on.Spans, smtQueries)
	if ratio > 1.10 {
		t.Errorf("tracing overhead %.2fx exceeds 1.10x wall-clock target", ratio)
	}
}

// TestBenchPR8JSON writes the validation-as-a-service artifact
// BENCH_PR8.json (the `make bench` target): the Figure 6 corpus
// validated through a tvd daemon twice against the same persistent
// result store — a cold run that fills the store and a warm run served
// from it. The warm run must hit the store for >=95% of the corpus with
// class counts byte-identical to the cold run AND to a local in-process
// run of the same corpus (the daemon changes where validation happens,
// never what it concludes), and the store-served certificate artifacts
// must pass the independent verifier with zero rejections. The recorded
// headline is the cold/warm wall-clock ratio. Gated behind
// WRITE_BENCH_JSON like the other artifact writers.
func TestBenchPR8JSON(t *testing.T) {
	if os.Getenv("WRITE_BENCH_JSON") == "" {
		t.Skip("set WRITE_BENCH_JSON=1 to write BENCH_PR8.json")
	}
	const workers = 4
	fns := corpus.Generate(corpus.GCCLike(figure6Corpus))

	srv, err := tvd.NewServer(tvd.ServerConfig{
		Workers:  workers,
		StoreDir: t.TempDir(),
		WorkDir:  t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := tvd.NewClient(hs.URL)

	req := &tvd.BatchRequest{MaxTermNodes: fig6ParallelBudget.MaxTermNodes}
	for _, f := range fns {
		req.Jobs = append(req.Jobs, tvd.JobRequest{Fn: f.Name, IR: f.Src})
	}
	type configResult struct {
		WallSeconds float64        `json:"wall_seconds"`
		CPUSeconds  float64        `json:"cpu_seconds"`
		StoreHits   int            `json:"store_hits"`
		StoreMisses int            `json:"store_misses"`
		Counts      map[string]int `json:"class_counts"`
	}
	measure := func(proofs bool) (configResult, *tvd.BatchResult) {
		req.Proofs = proofs
		start := time.Now()
		res, err := client.ValidateAll(req, nil)
		if err != nil {
			t.Fatal(err)
		}
		return configResult{
			WallSeconds: time.Since(start).Seconds(),
			CPUSeconds:  res.Stats.CPUSeconds,
			StoreHits:   res.StoreHits,
			StoreMisses: res.StoreMisses,
			Counts:      res.Stats.Classes,
		}, res
	}
	cold, _ := measure(false)
	warm, warmRes := measure(true)

	hitRate := float64(warm.StoreHits) / float64(len(fns))
	if hitRate < 0.95 {
		t.Errorf("warm-start hit rate %.2f (%d/%d) below the 0.95 floor",
			hitRate, warm.StoreHits, len(fns))
	}
	if fmt.Sprint(cold.Counts) != fmt.Sprint(warm.Counts) {
		t.Errorf("class counts diverged: cold %v, warm %v", cold.Counts, warm.Counts)
	}
	// Local equivalence: the same corpus validated in-process (same
	// deterministic budget, no daemon) must produce the same classes.
	local := harness.Run(harness.Config{
		Profile: corpus.GCCLike(figure6Corpus),
		Budget:  fig6ParallelBudget,
		Workers: workers,
	})
	if fmt.Sprint(local.ClassCounts()) != fmt.Sprint(cold.Counts) {
		t.Errorf("daemon classes diverged from a local run: local %v, daemon %v",
			local.ClassCounts(), cold.Counts)
	}

	// The warm batch's store-served artifacts must verify from scratch.
	proofDir := t.TempDir()
	if err := tvd.MaterializeProofs(proofDir, warmRes); err != nil {
		t.Fatal(err)
	}
	report, err := proof.CheckDir(proofDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rejections) != 0 {
		t.Fatalf("store-backed proofs rejected (%d), first: %s",
			len(report.Rejections), report.Rejections[0])
	}

	artifact := struct {
		Benchmark     string       `json:"benchmark"`
		Corpus        int          `json:"corpus_functions"`
		Workers       int          `json:"workers"`
		Cold          configResult `json:"cold"`
		Warm          configResult `json:"warm"`
		WallRatio     float64      `json:"wall_ratio_cold_over_warm"`
		HitRate       float64      `json:"warm_store_hit_rate"`
		HitRateFloor  float64      `json:"warm_store_hit_rate_floor"`
		CheckQueries  int          `json:"proofcheck_queries"`
		CheckWitness  int          `json:"proofcheck_witnesses"`
		CheckRejected int          `json:"proofcheck_rejections"`
	}{
		Benchmark:    "Figure6-daemon-store",
		Corpus:       figure6Corpus,
		Workers:      workers,
		Cold:         cold,
		Warm:         warm,
		WallRatio:    cold.WallSeconds / warm.WallSeconds,
		HitRate:      hitRate,
		HitRateFloor: 0.95,
		CheckQueries: report.Queries,
		CheckWitness: report.Witnesses,
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_PR8.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("BENCH_PR8.json: cold %.2fs, warm %.2fs (%.1fx), %d/%d store hits, proofcheck %d queries 0 rejections",
		cold.WallSeconds, warm.WallSeconds, artifact.WallRatio, warm.StoreHits, len(fns), report.Queries)
}

// TestBenchPR9JSON writes the cube-and-conquer / adaptive-portfolio
// artifact BENCH_PR9.json (the `make bench` target). Legs:
//
//   - untimed_full: the deterministic no-timeout Fig. 6 run with the whole
//     solver stack on (inprocessing, portfolio, cube) — class counts must
//     be byte-identical to the serial baseline, pinning that the
//     escalation-ladder rewrite changes time only, never verdicts;
//   - default_budget_adaptive vs default_budget_no_portfolio: the
//     generous 20s default budget, where PR 6's always-race portfolio
//     cost wall time (72.0s vs 68.3s no-portfolio). The adaptive gate
//     keeps probing solo while more than half the budget remains, so the
//     adaptive wall must come back down to the no-portfolio leg's,
//     with a timeout-count backstop against gross regressions;
//   - tight_budget_cube_off vs tight_budget_cube_on: the 2s budget that
//     manufactures the Timeout tail. The cube leg must escalate, must
//     decide queries by cubing (cube_unsat_wins + cubes_sat > 0), and
//     must not grow the tail. Function-level counts are gated for
//     non-regression rather than strict decrease: the 2s tail on this
//     corpus is mostly throughput-bound (hundreds of ~3ms queries per
//     function), so several functions straddle the cutoff and flip
//     between identical runs; each leg is therefore the median of three
//     interleaved runs. Cubing converts the monster-query functions and
//     20-35 individual queries per run, which is the stable signal;
//   - tight_budget_cube_proofs: the cube-on tight leg re-run with
//     certificate emission — every cube-escalated certificate must verify
//     with zero proofcheck rejections.
//
// Gated behind WRITE_BENCH_JSON like the other artifact writers.
func TestBenchPR9JSON(t *testing.T) {
	if os.Getenv("WRITE_BENCH_JSON") == "" {
		t.Skip("set WRITE_BENCH_JSON=1 to write BENCH_PR9.json")
	}
	const workers = 4
	type configResult struct {
		WallSeconds     float64        `json:"wall_seconds"`
		CPUSeconds      float64        `json:"cpu_seconds"`
		Counts          map[string]int `json:"class_counts"`
		CubeEscalations int64          `json:"cube_escalations,omitempty"`
		CubesGenerated  int64          `json:"cubes_generated,omitempty"`
		CubesRefuted    int64          `json:"cubes_refuted,omitempty"`
		CubesSat        int64          `json:"cubes_sat,omitempty"`
		CubeUnsatWins   int64          `json:"cube_unsat_wins,omitempty"`
		CubeSteals      int64          `json:"cube_steals,omitempty"`
		TailSMTCount    int64          `json:"tail_smt_count"`
		TailRuns        []int64        `json:"tail_smt_count_runs,omitempty"`
		TailSMTSecs     float64        `json:"tail_smt_seconds"`
		Rejections      int            `json:"proofcheck_rejections,omitempty"`
		Certificates    int64          `json:"certificates,omitempty"`
	}
	measure := func(budget tv.Budget, noPortfolio, noCube bool, proofDir string) configResult {
		cfg := figure6Config(workers, true)
		cfg.Budget = budget
		cfg.Checker = core.Options{DisableCube: noCube}
		cfg.DisablePortfolio = noPortfolio
		cfg.ProofDir = proofDir
		start := time.Now()
		sum := harness.Run(cfg)
		if sum.ProofErr != nil {
			t.Fatalf("proof emission failed: %v", sum.ProofErr)
		}
		tail := sum.Metrics.Hist("tail.smt")
		return configResult{
			WallSeconds:     time.Since(start).Seconds(),
			CPUSeconds:      sum.CPUTime.Seconds(),
			Counts:          sum.ClassCounts(),
			CubeEscalations: sum.SMTStats.CubeEscalations,
			CubesGenerated:  sum.SMTStats.CubesGenerated,
			CubesRefuted:    sum.SMTStats.CubesRefuted,
			CubesSat:        sum.SMTStats.CubesSat,
			CubeUnsatWins:   sum.Metrics.Counter("cube.unsat"),
			CubeSteals:      sum.SMTStats.CubeSteals,
			TailSMTCount:    tail.Count,
			TailSMTSecs:     time.Duration(tail.Sum).Seconds(),
			Certificates:    sum.SMTStats.Certificates,
		}
	}

	// Deterministic leg: verdict parity under the full stack.
	untimed := measure(fig6ParallelBudget, false, false, "")
	if got, base := fmt.Sprint(untimed.Counts), fig6BaselineCounts(); got != base {
		t.Errorf("untimed full-stack class counts diverged from the serial baseline:\n got %s\nwant %s", got, base)
	}

	// Generous-budget legs: the adaptive gate must stop the portfolio
	// from costing wall time.
	defaultBudget := tv.Budget{Timeout: 20 * time.Second, MaxTermNodes: fig6ParallelBudget.MaxTermNodes}
	adaptive := measure(defaultBudget, false, false, "")
	noPf := measure(defaultBudget, true, false, "")
	// The wall comparison is the gate that matters (PR 6's race-always
	// stack was 3.7s slower here); the timeout-count backstop only
	// catches gross regressions, because at 20s the 3-5 tail functions
	// sit right at the budget boundary and flip between identical runs.
	if adaptive.TailSMTCount > noPf.TailSMTCount+2 {
		t.Errorf("adaptive portfolio times out far more than no-portfolio at the default budget: %d vs %d",
			adaptive.TailSMTCount, noPf.TailSMTCount)
	}
	if adaptive.WallSeconds > noPf.WallSeconds*1.05 {
		t.Errorf("adaptive portfolio still costs wall time at the default budget: %.2fs vs %.2fs no-portfolio",
			adaptive.WallSeconds, noPf.WallSeconds)
	}

	// Tight-budget legs: cubing must engage, must decide queries, and
	// must not grow the timeout tail (see the leg comment above for why
	// strict function-level decrease is not a stable gate here). The
	// single-run counts flip ±2 between identical invocations, so each
	// leg is the tail-count median of three runs, interleaved so machine
	// drift across the bench lands on both legs alike.
	tight := tv.Budget{Timeout: 2 * time.Second, MaxTermNodes: fig6ParallelBudget.MaxTermNodes}
	var offRuns, onRuns []configResult
	for i := 0; i < 3; i++ {
		offRuns = append(offRuns, measure(tight, false, true, ""))
		onRuns = append(onRuns, measure(tight, false, false, ""))
	}
	tailMedian := func(rs []configResult) configResult {
		sorted := append([]configResult(nil), rs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].TailSMTCount < sorted[j].TailSMTCount })
		med := sorted[1]
		for _, r := range rs {
			med.TailRuns = append(med.TailRuns, r.TailSMTCount)
		}
		return med
	}
	tightOff := tailMedian(offRuns)
	tightOn := tailMedian(onRuns)
	if tightOn.CubeEscalations == 0 {
		t.Errorf("tight-budget cube leg never escalated: the comparison is vacuous")
	}
	if tightOn.CubeUnsatWins+tightOn.CubesSat == 0 {
		t.Errorf("tight-budget cube leg decided no queries by cubing (escalated %d times)",
			tightOn.CubeEscalations)
	}
	if tightOn.TailSMTCount > tightOff.TailSMTCount+1 {
		t.Errorf("cube grew the timeout tail: on %d, off %d",
			tightOn.TailSMTCount, tightOff.TailSMTCount)
	}

	// Certification leg: cube-escalated certificates verify from scratch.
	proofDir := t.TempDir()
	tightProofs := measure(tight, false, false, proofDir)
	report, err := proof.CheckDir(proofDir)
	if err != nil {
		t.Fatal(err)
	}
	tightProofs.Rejections = len(report.Rejections)
	for _, r := range report.Rejections {
		t.Errorf("proofcheck rejection: %s", r)
	}

	artifact := struct {
		Benchmark   string       `json:"benchmark"`
		Corpus      int          `json:"corpus_functions"`
		Workers     int          `json:"workers"`
		Untimed     configResult `json:"untimed_full"`
		Adaptive    configResult `json:"default_budget_adaptive"`
		NoPortfolio configResult `json:"default_budget_no_portfolio"`
		TightOff    configResult `json:"tight_budget_cube_off"`
		TightOn     configResult `json:"tight_budget_cube_on"`
		TightProofs configResult `json:"tight_budget_cube_proofs"`
	}{
		Benchmark:   "Figure6-cube-adaptive-portfolio",
		Corpus:      figure6Corpus,
		Workers:     workers,
		Untimed:     untimed,
		Adaptive:    adaptive,
		NoPortfolio: noPf,
		TightOff:    tightOff,
		TightOn:     tightOn,
		TightProofs: tightProofs,
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_PR9.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("BENCH_PR9.json: adaptive %.2fs vs no-portfolio %.2fs; tight tail cube-off %d/%.2fs cube-on %d/%.2fs (%d escalations, %d cubes, %d unsat wins); proofs leg %d certs %d rejections",
		adaptive.WallSeconds, noPf.WallSeconds,
		tightOff.TailSMTCount, tightOff.TailSMTSecs, tightOn.TailSMTCount, tightOn.TailSMTSecs,
		tightOn.CubeEscalations, tightOn.CubesGenerated, tightOn.CubeUnsatWins,
		tightProofs.Certificates, tightProofs.Rejections)
}
