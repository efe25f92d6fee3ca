// Command tv runs the full translation-validation pipeline of the paper's
// Figure 5 — ISel → hint generation → VC generation → KEQ — either on a
// single LLVM IR file or as the paper's evaluation experiments.
//
// Usage:
//
//	tv file.ll                      validate one file (all definitions)
//	tv -experiment fig6 [-n 300]    reproduce the Figure 6 outcome table
//	tv -experiment fig7 [-n 300]    reproduce the Figure 7 distributions
//	tv -experiment bugs             reproduce the §5.2 bug studies
//	tv -server host:port ...        run any of the above on a tvd daemon
//
// With -server the jobs are validated by a remote tvd daemon (warm
// solver pool, persistent result store) instead of in-process;
// -emit-proofs materializes the returned certificate artifacts locally
// and -trace writes the server-side span trace. -stats-json prints the
// run summary as one JSON object on stdout — the same struct a daemon
// embeds in its batch responses, so local and remote runs are
// field-for-field comparable.
//
// The -timeout, -max-nodes and -conflicts flags scale the paper's
// per-function budgets (3 h / 12 GB) down to interactive sizes. The
// -timeout budget bounds the whole per-function pipeline (ISel, VC
// generation, and KEQ), not just the SMT phase. -j spreads the
// experiment corpus across a worker pool; results are identical to a
// serial run (rows stay in corpus order), only faster. Each function's
// solver keeps its own verification-condition result cache keyed by
// alpha-invariant canonical term hashes; -no-vc-cache disables it, and
// -negative-form, -no-portfolio and -no-cube are the other ablation
// switches. -cpuprofile/-memprofile write pprof profiles for corpus runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/isel"
	"repro/internal/llvmir"
	"repro/internal/paperprogs"
	"repro/internal/proof"
	"repro/internal/smt"
	"repro/internal/telemetry"
	"repro/internal/tv"
	"repro/internal/vcgen"
)

func main() {
	// All work happens in run so its deferred profile writers complete
	// before the process exits (os.Exit skips pending defers).
	os.Exit(run())
}

func run() int {
	experiment := flag.String("experiment", "", "fig6, fig7, eval (both), or bugs")
	n := flag.Int("n", 300, "corpus size for fig6/fig7")
	timeout := flag.Duration("timeout", 20*time.Second, "per-function wall-clock budget")
	maxNodes := flag.Uint64("max-nodes", 4_000_000, "per-function term-node budget (memory stand-in)")
	conflicts := flag.Int64("conflicts", 0, "per-query SAT conflict budget (0 = unlimited)")
	inadequate := flag.Int("inadequate-every", 150, "validate every n-th function with coarse liveness (0 = never)")
	negForm := flag.Bool("negative-form", false, "ablation: disable the positive-form SMT optimization")
	noVCCache := flag.Bool("no-vc-cache", false, "ablation: disable the per-function VC result cache")
	noPortfolio := flag.Bool("no-portfolio", false, "ablation: disable the probe/cube escalation ladder")
	noCube := flag.Bool("no-cube", false, "ablation: disable cube-and-conquer escalation for the hardest queries")
	progress := flag.Bool("progress", false, "print per-function progress")
	jobs := flag.Int("j", 0, "parallel validation workers for fig6/fig7 (0 = GOMAXPROCS)")
	stats := flag.Bool("stats", false, "print run-wide solver and worker-pool statistics")
	emitProofs := flag.String("emit-proofs", "", "write proof certificates and bisimulation witnesses to this directory (verify with proofcheck)")
	traceFile := flag.String("trace", "", "write a JSONL span trace of every pipeline phase and SMT query to this file (lint with tracelint)")
	phaseReport := flag.Bool("phase-report", false, "print the per-phase time breakdown (and the timeout/OOM tail's)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	server := flag.String("server", "", "validate on a remote tvd daemon at this address instead of locally")
	statsJSON := flag.Bool("stats-json", false, "print the run summary as one JSON object on stdout")
	flag.Parse()

	// In server mode the daemon runs the pipeline (ablation flags do not
	// apply) and returns the span trace in the batch result, so the local
	// tracer stays off.
	var tracer *telemetry.Tracer
	if *traceFile != "" && *server == "" {
		tracer = telemetry.NewTracer()
	}

	if *emitProofs != "" {
		check(os.MkdirAll(*emitProofs, 0o755))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			check(err)
			runtime.GC() // materialize up-to-date allocation stats
			check(pprof.WriteHeapProfile(f))
			f.Close()
		}()
	}

	budget := tv.Budget{Timeout: *timeout, MaxTermNodes: *maxNodes, ConflictBudget: *conflicts}
	copts := core.Options{
		DisablePositiveForm: *negForm,
		DisableVCCache:      *noVCCache,
		DisableCube:         *noCube,
	}

	code := 0
	switch *experiment {
	case "":
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: tv [flags] file.ll | tv -experiment fig6|fig7|bugs")
			code = 2
			break
		}
		if *server != "" {
			code = validateFileRemote(flag.Arg(0), *server, budget, *emitProofs, *traceFile, *statsJSON, *phaseReport)
			break
		}
		if !*noPortfolio {
			copts.Portfolio = &smt.Portfolio{}
		}
		code = validateFile(flag.Arg(0), copts, budget, *emitProofs, tracer, *phaseReport)
	case "fig6", "fig7", "eval":
		var sum *harness.Summary
		var sj *harness.StatsJSON
		if *server != "" {
			// Remote experiment: the daemon validates the same synthetic
			// corpus; rendering goes through the identical Summary code.
			fns := corpus.Generate(corpus.GCCLike(*n))
			var pw io.Writer
			if *progress {
				pw = os.Stderr
			}
			res, err := remoteBatch(*server, fns, budget, *emitProofs != "", *traceFile != "", pw)
			check(err)
			finishRemote(res, *emitProofs, *traceFile)
			sum, sj = res.Summary(), res.Stats
		} else {
			cfg := harness.Config{
				Profile:          corpus.GCCLike(*n),
				Budget:           budget,
				InadequateEvery:  *inadequate,
				Checker:          copts,
				Workers:          *jobs,
				DisablePortfolio: *noPortfolio,
				ProofDir:         *emitProofs,
				Tracer:           tracer,
			}
			if *progress {
				cfg.Progress = os.Stderr
			}
			sum = harness.Run(cfg)
			check(sum.ProofErr)
			sj = sum.StatsJSON()
		}
		if *experiment == "fig6" || *experiment == "eval" {
			sum.Figure6(os.Stdout)
		}
		if *experiment == "fig7" || *experiment == "eval" {
			fmt.Println()
			sum.Figure7(os.Stdout)
		}
		if *stats {
			fmt.Println()
			sum.RenderStats(os.Stdout)
		}
		if *phaseReport {
			fmt.Println()
			sum.PhaseReport(os.Stdout)
		}
		if *statsJSON {
			printStatsJSON(sj)
		}
	case "bugs":
		code = runBugs(budget)
	default:
		fmt.Fprintf(os.Stderr, "tv: unknown experiment %q\n", *experiment)
		code = 2
	}
	if tracer != nil {
		f, err := os.Create(*traceFile)
		check(err)
		check(tracer.WriteJSONL(f))
		check(f.Close())
	}
	return code
}

func validateFile(path string, copts core.Options, budget tv.Budget, proofDir string,
	tracer *telemetry.Tracer, phaseReport bool) int {
	m := telemetry.NewMetrics()
	copts.Trace = tracer
	copts.Metrics = m
	copts.Scratch = smt.NewScratch()

	parseStart := time.Now()
	src, err := os.ReadFile(path)
	check(err)
	mod, err := llvmir.Parse(string(src))
	check(err)
	check(llvmir.Verify(mod))
	m.Observe("phase.parse", time.Since(parseStart))

	if proofDir != "" {
		check(os.MkdirAll(proofDir, 0o755))
	}

	failed := false
	var manifest proof.Manifest
	for _, fn := range mod.Funcs {
		if !fn.Defined() {
			continue
		}
		var rec *proof.Recorder
		if proofDir != "" {
			rec, err = proof.NewRecorder(proofDir, fn.Name)
			check(err)
			copts.Proof = rec
		}
		out := tv.Validate(mod, fn.Name, isel.Options{}, vcgen.Options{}, copts, budget)
		harness.RecordOutcome(m, 0, out)
		if rec != nil {
			_, err := rec.Close(out.Class == tv.ClassSucceeded)
			check(err)
			manifest.Functions = append(manifest.Functions, proof.ManifestRow{
				Name: fn.Name, Class: out.Class.String(), Certified: out.Class == tv.ClassSucceeded,
			})
		}
		fmt.Printf("@%-30s %-28s %8.2fs  %d points\n",
			fn.Name, out.Class, out.Duration.Seconds(), out.Points)
		if out.Class != tv.ClassSucceeded {
			failed = true
			if out.Err != nil {
				fmt.Printf("    %v\n", out.Err)
			}
			if out.Report != nil {
				for _, f := range out.Report.Failures {
					fmt.Printf("    %s\n", f)
				}
			}
		}
	}
	if proofDir != "" {
		check(proof.WriteManifest(proofDir, &manifest))
	}
	if phaseReport {
		fmt.Println()
		harness.RenderPhases(os.Stdout, m)
	}
	if failed {
		return 1
	}
	return 0
}

func runBugs(budget tv.Budget) int {
	experiments := []harness.BugExperiment{
		{
			Name:        "WAW store merge (Fig. 8/9, PR25154)",
			Program:     paperprogs.WAWStores,
			Fn:          "waw_foo",
			GoodOptions: isel.Options{MergeStores: true},
			BadOptions:  isel.Options{BugWAWStoreMerge: true},
		},
		{
			Name:        "Load narrowing (Fig. 10/11, PR4737)",
			Program:     paperprogs.LoadNarrow,
			Fn:          "narrow_foo",
			GoodOptions: isel.Options{},
			BadOptions:  isel.Options{BugLoadNarrow: true},
		},
	}
	var results []*harness.BugResult
	ok := true
	for _, e := range experiments {
		r, err := harness.RunBug(e, budget)
		check(err)
		results = append(results, r)
		ok = ok && r.BugCaught && r.GoodPassed
	}
	harness.RenderBugTable(os.Stdout, results)
	if !ok {
		return 1
	}
	return 0
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tv:", err)
		os.Exit(1)
	}
}
