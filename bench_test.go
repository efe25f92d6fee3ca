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
	"fmt"
	"os"
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
	"repro/internal/regalloc"
	"repro/internal/smt"
	"repro/internal/stack"
	"repro/internal/telemetry"
	"repro/internal/tv"
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
// so the rendering is ordered lexically.
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
// toggles only the per-function VC result cache, everything else held
// fixed.
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
// configurations: with and without the per-function VC result cache, with
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

// BenchmarkAblationNoVCCache is the EXPERIMENTS.md ablation row for the
// VC result cache: a corpus run with every function's solver cache off.
// The runAblation rows run with it on, like every other configuration.
func BenchmarkAblationNoVCCache(b *testing.B) {
	base := fig6BaselineCounts()
	for i := 0; i < b.N; i++ {
		sum := harness.Run(figure6Config(4, false))
		if got := fmt.Sprint(sum.ClassCounts()); got != base {
			b.Fatalf("counts diverged: got %s want %s", got, base)
		}
	}
}
