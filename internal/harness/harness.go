// Package harness drives the paper's evaluation (§5): it validates a
// corpus of functions under per-function budgets and renders the results
// as the paper's tables and figures — the outcome breakdown of Figure 6,
// the validation-time and code-size distributions of Figure 7, and the
// bug-reintroduction experiments of §5.2.
package harness

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/isel"
	"repro/internal/llvmir"
	"repro/internal/proof"
	"repro/internal/smt"
	"repro/internal/telemetry"
	"repro/internal/tv"
	"repro/internal/vcgen"
)

// Config tunes an experiment run.
type Config struct {
	// Corpus profile.
	Profile corpus.Profile
	// Functions, when non-nil, is the explicit corpus to validate and
	// Profile is ignored. Used for externally supplied workloads and
	// fault-injection tests.
	Functions []corpus.Function
	// Budget applied per function (the scaled-down analogue of the
	// paper's 3 h / 12 GB limits).
	Budget tv.Budget
	// InadequateEvery, when > 0, validates every n-th function with the
	// deliberately coarse liveness option, recreating the paper's
	// "Other" failures caused by liveness inaccuracy (16 / 4732).
	InadequateEvery int
	// Checker options (ablations).
	Checker core.Options
	// Progress, when non-nil, receives one line per validated function.
	// Writes are serialized, so any io.Writer is safe here even with
	// Workers > 1; lines arrive in completion order, not corpus order.
	Progress io.Writer
	// Workers is the number of functions validated concurrently
	// (0 or negative = runtime.GOMAXPROCS(0)). Each worker owns a
	// private SMT context and solver, so runs are state-isolated;
	// Summary.Rows is in corpus order regardless of worker count, and a
	// panic while validating one function is recovered into that
	// function's row instead of killing the run.
	Workers int
	// DisableVCCache turns off the run-wide verification-condition result
	// cache (ablation). By default Run creates one smt.Cache shared by all
	// workers, so an obligation that is alpha-equivalent to one already
	// discharged — by any worker, in any function — is answered without
	// solving. Ignored when Checker.VCCache is already set by the caller.
	DisableVCCache bool
	// DisablePortfolio turns off the probe/cube escalation ladder
	// (ablation). By default every checker runs the ladder with its
	// default budgets. Ignored when Checker.Portfolio is already set.
	DisablePortfolio bool
	// ProofDir, when non-empty, makes every validated function emit proof
	// certificates into that directory: query certificates plus DRAT
	// traces for all functions (so cache references across functions never
	// dangle), a bisimulation witness for each Succeeded function, and a
	// MANIFEST.json for the run. Verify with cmd/proofcheck.
	//
	// Emission streams: certificates and binary DRAT traces are written
	// as they are recorded, and each function writes its own term
	// segment when it finishes, so emission memory is bounded by the
	// largest single query and function rather than the run.
	ProofDir string
	// Tracer, when non-nil, receives one span tree per validated function
	// — harness.fn > harness.parse + tv.validate > per-phase and per-SMT-
	// query spans. The tracer is shared by all workers (it is
	// goroutine-safe); flush it with telemetry.WriteJSONL after Run.
	Tracer *telemetry.Tracer
}

// ResultRow is one function's outcome.
type ResultRow struct {
	Fn       string
	Class    tv.Class
	Duration time.Duration
	CodeSize int
	// Err carries the failure detail for non-Succeeded rows, including
	// recovered panic messages (Class Other).
	Err error
	// Submitted, Started, and Finished are the row's queue and execution
	// timestamps: Submitted is when the job entered the pool queue (zero
	// when the caller bypassed a Pool), Started is when a worker picked it
	// up, Finished when the worker was done. Started-Submitted is queue
	// latency — the number the daemon's admission control is judged by —
	// and Finished-Started covers validation plus proof emission, a
	// superset of Duration.
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	// Certified reports that proof emission was on and the function's
	// certificates and bisimulation witness were written successfully.
	Certified bool
	// ProofErr records why certificate or witness emission failed for this
	// row (nil when proof emission was off or succeeded). Unlike Err it is
	// set even when validation itself also failed, so a proof-write
	// failure is never silently folded into Certified=false.
	ProofErr error
}

// Summary aggregates an experiment.
type Summary struct {
	Rows  []ResultRow
	Total int
	// Workers is the pool size the run actually used.
	Workers int
	// WallTime is the elapsed time of the whole run; CPUTime is the sum
	// of per-function validation durations across all workers. Their
	// ratio is the parallel speedup (see Speedup).
	WallTime time.Duration
	CPUTime  time.Duration
	// SMTStats is the typed view of the solver totals in Metrics
	// (smt.StatsOf), set once when the run completes.
	SMTStats smt.Stats
	// Certified counts rows whose certificates and witness were written
	// (0 when proof emission was off).
	Certified int
	// CertFailed counts rows whose proof emission failed (ProofErr set).
	CertFailed int
	// ProofErr records a failure writing the run manifest, if any.
	ProofErr error
	// Metrics holds the run's per-phase latency histograms, outcome
	// counters, and solver totals, merged across workers. Always non-nil
	// after Run; Figure7, RenderStats, PhaseReport, and StatsJSON render
	// from it.
	Metrics *telemetry.Metrics
}

// Run validates the whole corpus across Config.Workers goroutines and
// returns the summary. Results land in Summary.Rows in corpus order
// regardless of completion order, so a parallel run is row-for-row
// comparable with a serial one.
func Run(cfg Config) *Summary {
	fns := cfg.Functions
	if fns == nil {
		fns = corpus.Generate(cfg.Profile)
	}
	if cfg.Checker.VCCache == nil && !cfg.DisableVCCache {
		cfg.Checker.VCCache = smt.NewCache()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(fns) && len(fns) > 0 {
		workers = len(fns)
	}
	sum := &Summary{Total: len(fns), Workers: workers, Rows: make([]ResultRow, len(fns)),
		Metrics: telemetry.NewMetrics()}
	if cfg.ProofDir != "" {
		// Created here as well as by each recorder: the manifest needs
		// the directory even when no function gets a recorder. A
		// directory that cannot be created fails every row's proof
		// emission (each recorder reports it) rather than running
		// silently uncertified.
		sum.ProofErr = os.MkdirAll(cfg.ProofDir, 0o755)
	}
	start := time.Now()

	// The batch run is a Pool fed as fast as Submit accepts: the same
	// worker loop the tvd daemon keeps warm across requests.
	pool := NewPool(PoolConfig{
		Workers:          workers,
		Portfolio:        cfg.Checker.Portfolio,
		DisablePortfolio: cfg.DisablePortfolio,
	})
	var (
		mu   sync.Mutex // guards sum's aggregates, done, and Progress writes
		done int
	)
	for i := range fns {
		vopts := vcgen.Options{}
		if cfg.InadequateEvery > 0 && i%cfg.InadequateEvery == cfg.InadequateEvery-1 {
			vopts.CoarseLiveness = true
		}
		pool.Submit(Job{
			Fn:       fns[i],
			Index:    i,
			VCGen:    vopts,
			Checker:  cfg.Checker,
			Budget:   cfg.Budget,
			ProofDir: cfg.ProofDir,
			Tracer:   cfg.Tracer,
			Done: func(res JobResult) {
				sum.Rows[res.Index] = res.Row // index-disjoint writes: no lock needed
				mu.Lock()
				sum.Metrics.Merge(res.Metrics)
				sum.CPUTime += res.Row.Duration
				done++
				if cfg.Progress != nil {
					fmt.Fprintf(cfg.Progress, "%4d/%d %-8s %-28s %8.2fs size=%d\n",
						done, len(fns), res.Row.Fn, res.Row.Class,
						res.Row.Duration.Seconds(), res.Row.CodeSize)
				}
				mu.Unlock()
			},
		})
	}
	pool.Close()
	sum.WallTime = time.Since(start)
	sum.SMTStats = smt.StatsOf(sum.Metrics)
	if cfg.ProofDir != "" {
		m := &proof.Manifest{}
		for _, r := range sum.Rows {
			if r.Certified {
				sum.Certified++
			}
			if r.ProofErr != nil {
				sum.CertFailed++
			}
			m.Functions = append(m.Functions, proof.ManifestRow{
				Name: r.Fn, Class: r.Class.String(), Certified: r.Certified,
			})
		}
		if err := proof.WriteManifest(cfg.ProofDir, m); err != nil && sum.ProofErr == nil {
			sum.ProofErr = err
		}
	}
	return sum
}

// validateHook, when non-nil, runs at the start of each function's
// validation; tests use it to inject faults (e.g. panics) into the pool.
var validateHook func(i int, f corpus.Function)

// validateOne runs the full pipeline for one pool job. Parse failures
// and panics are contained here: both become a ClassOther row with the
// cause in Err, so one bad function cannot abort the corpus run. The
// returned Metrics registry is private to this call — the caller merges
// it into the run-wide one — so recording it needs no cross-worker
// synchronization.
func validateOne(j Job) (row ResultRow, m *telemetry.Metrics) {
	m = telemetry.NewMetrics()
	f := j.Fn
	start := time.Now()
	var rec *proof.Recorder
	var parseDur time.Duration
	var parseAlloc int64
	var out *tv.Outcome
	// Declared first so it runs after every other handler: whatever path
	// produced the row — success, parse failure, panic — it carries the
	// queue and execution timestamps.
	defer func() {
		row.Submitted = j.Submitted
		row.Started = start
		row.Finished = time.Now()
	}()
	fnSpan := j.Tracer.Start(0, "harness.fn", telemetry.String("fn", f.Name))
	if fnSpan != nil {
		j.Checker.Trace = j.Tracer
		j.Checker.TraceParent = fnSpan.ID()
	}
	// The solver observes per-query latency into the private registry
	// whether or not tracing is on; Figure 7 and -stats render from it.
	j.Checker.Metrics = m
	// Declared before the recover handler so it runs after it: on a panic
	// the row is already rewritten by the time the metrics are recorded.
	defer func() {
		if out != nil {
			RecordOutcome(m, parseDur, out)
		} else {
			m.Observe("fn.duration", row.Duration)
			m.Add("class."+row.Class.String(), 1)
		}
		if fnSpan != nil {
			fnSpan.SetAttr("class", row.Class.String())
			fnSpan.End()
		}
	}()
	defer func() {
		if p := recover(); p != nil {
			row = ResultRow{
				Fn:       f.Name,
				Class:    tv.ClassOther,
				Duration: time.Since(start),
				Err:      fmt.Errorf("harness: panic validating %s: %v", f.Name, p),
			}
			out = nil
			if rec != nil {
				// Certificates recorded before the panic may already back
				// cache entries other functions reference; keep them.
				n, perr := rec.Close(false)
				(&smt.Stats{ProofBytes: n}).Record(m)
				if perr != nil {
					row.ProofErr = perr
				}
			}
		}
	}()
	if validateHook != nil {
		validateHook(j.Index, f)
	}
	parseSpan := j.Tracer.Start(j.Checker.TraceParent, "harness.parse")
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	mod, err := llvmir.Parse(f.Src)
	parseSpan.End()
	parseDur = time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	parseAlloc = int64(msAfter.TotalAlloc - msBefore.TotalAlloc)
	if err != nil {
		return ResultRow{
			Fn:       f.Name,
			Class:    tv.ClassOther,
			Duration: time.Since(start),
			Err:      fmt.Errorf("harness: corpus function %s does not parse: %w", f.Name, err),
		}, m
	}
	// A recorder that cannot be opened leaves the function to validate
	// uncertified, with the failure on its row.
	var recErr error
	if j.ProofDir != "" {
		if rec, recErr = proof.NewRecorder(j.ProofDir, f.Name); recErr == nil {
			j.Checker.Proof = rec
		}
	}
	out = tv.Validate(mod, f.Name, j.ISel, j.VCGen, j.Checker, j.Budget)
	out.Phases.Parse = parseDur
	out.Mem.Parse = parseAlloc
	row = ResultRow{Fn: f.Name, Class: out.Class, Duration: out.Duration,
		CodeSize: out.CodeSize, Err: out.Err, ProofErr: recErr}
	if rec != nil {
		// Certificates are written for every row — including failures — so
		// a "ref" certificate in another function can always resolve; the
		// witness is written only when validation succeeded. ProofBytes
		// counts what actually landed on disk for this function.
		bytes, perr := rec.Close(out.Class == tv.ClassSucceeded)
		row.Certified = out.Class == tv.ClassSucceeded && perr == nil
		out.SMTStats.ProofBytes = bytes
		if perr != nil {
			row.ProofErr = perr
			if row.Err == nil {
				row.Err = fmt.Errorf("harness: writing proofs for %s: %w", f.Name, perr)
			}
		}
	}
	return row, m
}

// RecordOutcome folds one validation outcome into m: the per-phase
// latency histograms (phase.*), the whole-run histogram (fn.duration),
// the outcome counter (class.*), the function's solver totals (the
// counters of smt.Stats.Record), and — for Timeout and OOM rows — the
// tail.* phase histograms that explain where the budget went (the
// Figure 6 failure tail). Shared by the harness worker and cmd/tv's
// single-file mode.
func RecordOutcome(m *telemetry.Metrics, parse time.Duration, out *tv.Outcome) {
	if m == nil || out == nil {
		return
	}
	m.Observe("fn.duration", out.Duration)
	m.Add("class."+out.Class.String(), 1)
	out.SMTStats.Record(m)
	obs := func(name string, d time.Duration) {
		if d > 0 {
			m.Observe(name, d)
		}
	}
	obs("phase.parse", parse)
	obs("phase.isel", out.Phases.ISel)
	obs("phase.vcgen", out.Phases.VCGen)
	obs("phase.check", out.Phases.Check)
	obs("phase.smt", out.Phases.SMT)
	obs("phase.step", out.Phases.Check-out.Phases.SMT)
	obsV := func(name string, v int64) {
		if v > 0 {
			m.ObserveVal(name, v)
		}
	}
	obsV("mem.parse", out.Mem.Parse)
	obsV("mem.isel", out.Mem.ISel)
	obsV("mem.vcgen", out.Mem.VCGen)
	obsV("mem.check", out.Mem.Check)
	obsV("mem.peak", out.Mem.Peak)
	if out.Class == tv.ClassTimeout || out.Class == tv.ClassOOM {
		obs("tail.parse", parse)
		obs("tail.isel", out.Phases.ISel)
		obs("tail.vcgen", out.Phases.VCGen)
		obs("tail.check", out.Phases.Check)
		obs("tail.smt", out.Phases.SMT)
		obs("tail.step", out.Phases.Check-out.Phases.SMT)
		obsV("tail.mem.parse", out.Mem.Parse)
		obsV("tail.mem.isel", out.Mem.ISel)
		obsV("tail.mem.vcgen", out.Mem.VCGen)
		obsV("tail.mem.check", out.Mem.Check)
		obsV("tail.mem.peak", out.Mem.Peak)
	}
}

// Speedup is the ratio of aggregate validation CPU time to wall-clock
// time — the effective parallelism achieved by the worker pool.
func (s *Summary) Speedup() float64 {
	if s.WallTime <= 0 {
		return 0
	}
	return s.CPUTime.Seconds() / s.WallTime.Seconds()
}

// RenderStats prints the run-wide solver totals and the wall-clock vs.
// CPU-time accounting of the worker pool.
func (s *Summary) RenderStats(w io.Writer) {
	fmt.Fprintf(w, "Harness: %d functions, %d workers, wall %.2fs, cpu %.2fs (speedup %.2fx)\n",
		s.Total, s.Workers, s.WallTime.Seconds(), s.CPUTime.Seconds(), s.Speedup())
	fmt.Fprintf(w, "SMT: %d queries (%d fast, %d model-reuse), %d SAT instances, %d conflicts, %d decisions, %d clauses, solve time %.2fs\n",
		s.SMTStats.Queries, s.SMTStats.FastQueries, s.SMTStats.ModelHits, s.SMTStats.Instances,
		s.SMTStats.SATConflicts, s.SMTStats.SATDecisions, s.SMTStats.CNFClauses, s.SMTStats.SolveDuration.Seconds())
	if looked := s.SMTStats.CacheHits + s.SMTStats.CacheMisses; looked > 0 {
		fmt.Fprintf(w, "VC cache: %d hits / %d lookups (%.1f%% hit rate), %d canonical bytes hashed\n",
			s.SMTStats.CacheHits, looked,
			100*float64(s.SMTStats.CacheHits)/float64(looked), s.SMTStats.CacheBytes)
	}
	if n := s.SMTStats.SubsumedClauses + s.SMTStats.StrengthenedClauses +
		s.SMTStats.VivifiedClauses; n > 0 {
		fmt.Fprintf(w, "Inprocessing: %d clauses subsumed, %d strengthened, %d vivified\n",
			s.SMTStats.SubsumedClauses, s.SMTStats.StrengthenedClauses,
			s.SMTStats.VivifiedClauses)
	}
	// The ladder's gate decisions for queries that outlived a probe.
	c := s.Metrics.Counter
	extend, slow := c("portfolio.probe.extend"), c("portfolio.probe.slow")
	overrun, nosplit := c("cube.overrun"), c("cube.nosplit")
	watermark, window, deadline := c("cube.skip.watermark"), c("cube.skip.window"), c("cube.skip.deadline")
	if extend+slow+overrun+nosplit+watermark+window+deadline > 0 {
		fmt.Fprintf(w, "Ladder: %d probe extensions, %d slow probes, %d overruns, %d unsplittable; cube skipped: %d watermark, %d window, %d deadline\n",
			extend, slow, overrun, nosplit, watermark, window, deadline)
	}
	if s.SMTStats.CubeEscalations > 0 {
		fmt.Fprintf(w, "Cube: %d escalations, %d cubes (%d refuted, %d sat)\n",
			s.SMTStats.CubeEscalations, s.SMTStats.CubesGenerated,
			s.SMTStats.CubesRefuted, s.SMTStats.CubesSat)
	}
	if h := s.Metrics.Hist("smt.query"); h.Count > 0 {
		fmt.Fprintf(w, "SMT latency: p50 %s, p90 %s, p99 %s, max %s over %d observed queries\n",
			fmtDur(h.Quantile(0.5)), fmtDur(h.Quantile(0.9)), fmtDur(h.Quantile(0.99)),
			fmtDur(time.Duration(h.Max)), h.Count)
	}
	if s.SMTStats.Certificates > 0 || s.CertFailed > 0 {
		fmt.Fprintf(w, "Proofs: %d query certificates, %d certificate bytes, %d/%d functions certified\n",
			s.SMTStats.Certificates, s.SMTStats.ProofBytes, s.Certified, s.Total)
	}
	if s.CertFailed > 0 {
		fmt.Fprintf(w, "Proof emission FAILED for %d functions (first: %v)\n",
			s.CertFailed, s.firstProofErr())
	}
}

// firstProofErr returns the first per-row proof-emission error, in corpus
// order (nil when none failed).
func (s *Summary) firstProofErr() error {
	for _, r := range s.Rows {
		if r.ProofErr != nil {
			return r.ProofErr
		}
	}
	return nil
}

// Counts returns the per-class totals.
func (s *Summary) Counts() map[tv.Class]int {
	out := make(map[tv.Class]int)
	for _, r := range s.Rows {
		out[r.Class]++
	}
	return out
}

// ClassCounts returns the per-class totals keyed by class name. This is
// the JSON-marshalable form the BENCH_*.json writers and cross-run
// comparisons use (a map[tv.Class]int marshals its int8 keys uselessly,
// and fmt.Sprint orders it numerically rather than lexically).
func (s *Summary) ClassCounts() map[string]int {
	out := make(map[string]int)
	for _, r := range s.Rows {
		out[r.Class.String()]++
	}
	return out
}

// Figure6 renders the outcome table in the layout of the paper's Figure 6.
// NotValidated rows of a bug-free corpus are false alarms and fold into
// "Other", exactly like the paper's inadequate-synchronization-point
// failures.
func (s *Summary) Figure6(w io.Writer) {
	counts := s.Counts()
	succeeded := counts[tv.ClassSucceeded]
	timeout := counts[tv.ClassTimeout]
	oom := counts[tv.ClassOOM]
	other := counts[tv.ClassOther] + counts[tv.ClassNotValidated]
	supported := s.Total - counts[tv.ClassUnsupported]

	fmt.Fprintln(w, "Figure 6: Translation validation results (synthetic GCC-like corpus)")
	fmt.Fprintln(w, "+------------------------------+------------+---------+")
	fmt.Fprintln(w, "| Result                       | #Functions |       % |")
	fmt.Fprintln(w, "+------------------------------+------------+---------+")
	row := func(name string, n int) {
		pct := 0.0
		if supported > 0 {
			pct = 100 * float64(n) / float64(supported)
		}
		fmt.Fprintf(w, "| %-28s | %10d | %6.2f%% |\n", name, n, pct)
	}
	row("Succeeded", succeeded)
	row("Failed due to timeout", timeout)
	row("Failed due to out-of-memory", oom)
	row("Other", other)
	fmt.Fprintln(w, "+------------------------------+------------+---------+")
	row("Total", supported)
	fmt.Fprintln(w, "+------------------------------+------------+---------+")
	if un := counts[tv.ClassUnsupported]; un > 0 {
		fmt.Fprintf(w, "(%d additional functions outside the supported fragment, excluded as in the paper)\n", un)
	}
}

// Figure7 renders the two distributions of the paper's Figure 7 as text
// histograms: validation time (from the run's fn.duration latency
// histogram when metrics were recorded, per-row otherwise) and code size.
func (s *Summary) Figure7(w io.Writer) {
	fmt.Fprintln(w, "Figure 7: Distributions of validation time and code size")
	if h := s.Metrics.Hist("fn.duration"); h.Count > 0 {
		fmt.Fprintf(w, "\nValidation time: mean %.2fs, median %.2fs (log2 buckets)\n",
			h.Mean().Seconds(), h.Quantile(0.5).Seconds())
		renderHistBuckets(w, &h)
	} else {
		var times []float64
		for _, r := range s.Rows {
			times = append(times, r.Duration.Seconds())
		}
		fmt.Fprintf(w, "\nValidation time: mean %.2fs, median %.2fs\n",
			mean(times), median(times))
		histogram(w, "time", times, []float64{0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100},
			func(v float64) string { return fmt.Sprintf("%6.2fs", v) })
	}

	var sizes []int
	for _, r := range s.Rows {
		sizes = append(sizes, r.CodeSize)
	}
	sizesF := make([]float64, len(sizes))
	for i, v := range sizes {
		sizesF[i] = float64(v)
	}
	fmt.Fprintf(w, "\nCode size (LLVM instructions): mean %.0f, median %.0f\n",
		mean(sizesF), median(sizesF))
	histogram(w, "size", sizesF, []float64{4, 8, 16, 32, 64, 128, 256, 512},
		func(v float64) string { return fmt.Sprintf("%6.0f", v) })
}

// fmtDur renders a duration with 3 significant digits — log2 bucket
// edges stringify unreadably otherwise (1.048576ms).
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.3gµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.3gms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3gs", d.Seconds())
	}
}

// renderHistBuckets prints a telemetry histogram as ASCII bars.
func renderHistBuckets(w io.Writer, h *telemetry.Histogram) {
	bs := h.Buckets()
	max := int64(1)
	for _, b := range bs {
		if b.Count > max {
			max = b.Count
		}
	}
	for _, b := range bs {
		bar := strings.Repeat("#", int(math.Round(40*float64(b.Count)/float64(max))))
		fmt.Fprintf(w, "  %8s – %-8s %5d %s\n", fmtDur(b.Lo), fmtDur(b.Hi), b.Count, bar)
	}
}

// phaseRows is the rendering order of PhaseReport; step and smt are
// sub-phases of check (indented) and excluded from the CPU total.
var phaseRows = []struct {
	label string
	key   string
	sub   bool
}{
	{"parse", "parse", false},
	{"isel", "isel", false},
	{"vcgen", "vcgen", false},
	{"check", "check", false},
	{"step", "step", true},
	{"smt", "smt", true},
}

// PhaseReport prints the per-phase wall-clock breakdown of the run — the
// instrument the paper's §5.1 timeout/OOM discussion calls for: it shows
// where the budget of the failure tail went (symbolic stepping vs. SMT
// solving vs. the pre-check phases).
func (s *Summary) PhaseReport(w io.Writer) {
	RenderPhases(w, s.Metrics)
}

// RenderPhases is the standalone form of PhaseReport, for callers that
// recorded phase metrics without a Summary (cmd/tv's single-file mode).
func RenderPhases(w io.Writer, m *telemetry.Metrics) {
	renderPhaseTable(w, m, "phase", "Per-phase time breakdown (all functions)")
	if m.Hist("mem.check").Count > 0 || m.Hist("mem.parse").Count > 0 {
		fmt.Fprintln(w)
		renderMemTable(w, m, "mem", "Per-phase allocation breakdown (all functions)")
	}
	if tailCount(m) > 0 {
		fmt.Fprintln(w)
		renderPhaseTable(w, m, "tail", "Timeout/OOM tail: where the budget went")
		fmt.Fprintln(w)
		renderMemTable(w, m, "tail.mem", "Timeout/OOM tail: where the memory went")
	}
}

// memRows is the rendering order of the mem.* breakdown; peak is a
// point-in-time heap sample, not an allocation total, so it is excluded
// from the %alloc denominator.
var memRows = []struct {
	label string
	key   string
	peak  bool
}{
	{"parse", "parse", false},
	{"isel", "isel", false},
	{"vcgen", "vcgen", false},
	{"check", "check", false},
	{"peak", "peak", true},
}

// renderMemTable prints the allocation breakdown recorded in the
// prefix.* histograms (byte observations, not durations).
func renderMemTable(w io.Writer, m *telemetry.Metrics, prefix, title string) {
	var allocTotal int64
	for _, p := range memRows {
		if !p.peak {
			h := m.Hist(prefix + "." + p.key)
			allocTotal += h.Sum
		}
	}
	if allocTotal == 0 {
		return
	}
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "  %-8s %7s %10s %10s %10s %10s %7s"+"\n",
		"phase", "count", "total", "mean", "p50", "max", "%alloc")
	for _, p := range memRows {
		h := m.Hist(prefix + "." + p.key)
		if h.Count == 0 {
			continue
		}
		pctS := "      -"
		if !p.peak && allocTotal > 0 {
			pctS = fmt.Sprintf("%6.1f%%", 100*float64(h.Sum)/float64(allocTotal))
		}
		fmt.Fprintf(w, "  %-8s %7d %10s %10s %10s %10s %s"+"\n",
			p.label, h.Count,
			fmtBytes(h.Sum), fmtBytes(int64(h.Mean())),
			fmtBytes(int64(h.Quantile(0.5))), fmtBytes(h.Max), pctS)
	}
}

// fmtBytes renders a byte count with 3 significant digits.
func fmtBytes(n int64) string {
	switch {
	case n < 1<<10:
		return fmt.Sprintf("%dB", n)
	case n < 1<<20:
		return fmt.Sprintf("%.3gKB", float64(n)/(1<<10))
	case n < 1<<30:
		return fmt.Sprintf("%.3gMB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%.3gGB", float64(n)/(1<<30))
	}
}

func tailCount(m *telemetry.Metrics) int64 {
	var n int64
	for _, p := range phaseRows {
		h := m.Hist("tail." + p.key)
		if h.Count > n {
			n = h.Count
		}
	}
	return n
}

// renderPhaseTable prints one phase table from the prefix.* histograms of
// m. The %cpu column is relative to the top-level phases' total (check's
// sub-phases overlap it and are excluded from the denominator).
func renderPhaseTable(w io.Writer, m *telemetry.Metrics, prefix, title string) {
	var cpuTotal int64
	for _, p := range phaseRows {
		if !p.sub {
			h := m.Hist(prefix + "." + p.key)
			cpuTotal += h.Sum
		}
	}
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "  %-8s %7s %10s %10s %10s %10s %10s %7s\n",
		"phase", "count", "total", "mean", "p50", "p90", "max", "%cpu")
	for _, p := range phaseRows {
		h := m.Hist(prefix + "." + p.key)
		if h.Count == 0 {
			continue
		}
		label := p.label
		if p.sub {
			label = "  " + label
		}
		pct := 0.0
		if cpuTotal > 0 {
			pct = 100 * float64(h.Sum) / float64(cpuTotal)
		}
		fmt.Fprintf(w, "  %-8s %7d %10s %10s %10s %10s %10s %6.1f%%\n",
			label, h.Count,
			fmtDur(time.Duration(h.Sum)), fmtDur(h.Mean()),
			fmtDur(h.Quantile(0.5)), fmtDur(h.Quantile(0.9)),
			fmtDur(time.Duration(h.Max)), pct)
	}
	if cpuTotal == 0 {
		fmt.Fprintln(w, "  (no phase metrics recorded)")
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// histogram prints counts per bucket with an ASCII bar.
func histogram(w io.Writer, label string, xs []float64, edges []float64,
	fmtEdge func(float64) string) {
	counts := make([]int, len(edges)+1)
	for _, x := range xs {
		i := sort.SearchFloat64s(edges, x)
		if i < len(edges) && x == edges[i] {
			i++
		}
		counts[i]++
	}
	max := 1
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	for i, c := range counts {
		var lo, hi string
		switch {
		case i == 0:
			lo, hi = strings.Repeat(" ", len(fmtEdge(0))), "< "+strings.TrimSpace(fmtEdge(edges[0]))
		case i == len(edges):
			lo, hi = "≥ "+strings.TrimSpace(fmtEdge(edges[len(edges)-1])), ""
		default:
			lo, hi = strings.TrimSpace(fmtEdge(edges[i-1])), "– "+strings.TrimSpace(fmtEdge(edges[i]))
		}
		bar := strings.Repeat("#", int(math.Round(40*float64(c)/float64(max))))
		fmt.Fprintf(w, "  %-18s %5d %s\n", strings.TrimSpace(lo+" "+hi), c, bar)
	}
}

// BugExperiment reruns the §5.2 bug-reintroduction study: each bug is
// injected into ISel and the triggering program is validated; the expected
// outcome is rejection, while the bug-free compilation of the same program
// validates.
type BugExperiment struct {
	Name        string
	Program     string
	Fn          string
	BadOptions  isel.Options
	GoodOptions isel.Options
}

// BugResult reports one bug experiment.
type BugResult struct {
	Name        string
	GoodClass   tv.Class
	BuggyClass  tv.Class
	BugCaught   bool
	GoodPassed  bool
	GoodReport  *core.Report
	BuggyReport *core.Report
}

// RunBug executes one bug experiment.
func RunBug(e BugExperiment, budget tv.Budget) (*BugResult, error) {
	mod, err := llvmir.Parse(e.Program)
	if err != nil {
		return nil, err
	}
	good := tv.Validate(mod, e.Fn, e.GoodOptions, vcgen.Options{}, core.Options{}, budget)
	mod2, err := llvmir.Parse(e.Program)
	if err != nil {
		return nil, err
	}
	bad := tv.Validate(mod2, e.Fn, e.BadOptions, vcgen.Options{}, core.Options{}, budget)
	return &BugResult{
		Name:        e.Name,
		GoodClass:   good.Class,
		BuggyClass:  bad.Class,
		GoodPassed:  good.Class == tv.ClassSucceeded,
		BugCaught:   bad.Class == tv.ClassNotValidated,
		GoodReport:  good.Report,
		BuggyReport: bad.Report,
	}, nil
}

// RenderBugTable prints the §5.2 experiment results.
func RenderBugTable(w io.Writer, results []*BugResult) {
	fmt.Fprintln(w, "Section 5.2: Evaluation with real LLVM bugs")
	fmt.Fprintln(w, "+----------------------------------------+-----------------+-----------------+")
	fmt.Fprintln(w, "| Bug                                    | Correct version | Buggy version   |")
	fmt.Fprintln(w, "+----------------------------------------+-----------------+-----------------+")
	for _, r := range results {
		fmt.Fprintf(w, "| %-38s | %-15s | %-15s |\n", r.Name,
			verdictWord(r.GoodPassed, "validated", "NOT VALIDATED"),
			verdictWord(r.BugCaught, "rejected ✓", "MISSED ✗"))
	}
	fmt.Fprintln(w, "+----------------------------------------+-----------------+-----------------+")
}

func verdictWord(ok bool, yes, no string) string {
	if ok {
		return yes
	}
	return no
}
