package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/llvmir"
	"repro/internal/proof"
	"repro/internal/smt"
	"repro/internal/telemetry"
	"repro/internal/tv"
)

const (
	workers = 2
	// inadequateEvery validates every 40th row of a pass with coarse
	// liveness, so each pass keeps a few of the paper's "liveness too
	// coarse" rows.
	inadequateEvery = 40
	// fig6MaxMS keeps a fig6 pass short: only functions whose reference
	// time is at most this many milliseconds run (94 of the 120). A pass
	// then takes a few seconds and a run repeats it about ten times, so
	// every fig6 metric is a median over passes and a stall on the host
	// moves one pass, not the run.
	fig6MaxMS = 500
	// tightBudget is the tight workload's per-function wall budget.
	tightBudget = 2 * time.Second
	// tightFunctions is the corpus prefix tight draws from.
	tightFunctions = 60
	// tightMaxMS keeps the tight pass short in the same way as fig6MaxMS:
	// of the first 60 functions, those at most this long in the reference
	// run, plus tightLadder.
	tightMaxMS = 500
	// spotCheckFunctions certifies this many fig6 functions before the
	// measured phase, so fig6 verdicts are also checked by proofcheck.
	spotCheckFunctions = 20
	// arrangeBand is the size of the cost bands the seed shuffles.
	arrangeBand = 2
	// setupReps repeats the batch set-up; the median is reported.
	setupReps = 15
)

// tightLadder are the functions among the first 60 whose queries climb
// the whole probe -> race -> cube ladder under the 2 s budget: fn0005 is
// decided after a cube escalation (in about 1.1 s), fn0056 escalates and
// then times out. The other functions over tightMaxMS only add wall time
// or sit close enough to the budget that host speed decides their class:
// fn0008 (about 2 s in the reference run) escalates too, but it was
// decided in some passes and timed out in others, and each flip moved the
// pass wall by a tenth.
var tightLadder = []string{"fn0005", "fn0056"}

// batchSetup generates and parses the corpus setupReps times and returns
// each repetition's seconds; the last repetition's functions are used.
func batchSetup(lr *layers) ([]corpus.Function, []float64, error) {
	var fns []corpus.Function
	var total, gen []float64
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		t0 := time.Now()
		fns = corpus.Generate(corpus.GCCLike(batchCorpus))
		t1 := time.Now()
		for _, f := range fns {
			if _, err := llvmir.Parse(f.Src); err != nil {
				return nil, nil, fmt.Errorf("corpus function %s: %w", f.Name, err)
			}
		}
		total = append(total, time.Since(t0).Seconds())
		gen = append(gen, float64(t1.Sub(t0))/float64(time.Millisecond))
	}
	lr.set("corpus.generate_ms", median(gen))
	return fns, total, nil
}

// passRow is one row of a pass with the liveness it was validated under.
type passRow struct {
	harness.ResultRow
	coarse bool
}

// batchPass is one harness.Run over the workload's functions.
type batchPass struct {
	rows    []passRow
	start   time.Time
	wall    time.Duration
	cpu     time.Duration
	stats   smt.Stats
	metrics *telemetry.Metrics
	heapMiB float64            // peak live heap (see heapWatch.Stop)
	check   time.Duration      // proof.CheckDir wall after the pass
	checked int                // certified functions the check covered
	report  *proof.CheckReport // tight only
}

func runBatchPass(fns []corpus.Function, budget tv.Budget, proofDir string, tracer *telemetry.Tracer) (*batchPass, error) {
	cfg := harness.Config{
		Functions:       fns,
		Budget:          budget,
		InadequateEvery: inadequateEvery,
		Workers:         workers,
		ProofDir:        proofDir,
		Tracer:          tracer,
	}
	if proofDir != "" {
		if err := os.RemoveAll(proofDir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(proofDir, 0o755); err != nil {
			return nil, err
		}
	}
	hw := watchHeap(10 * time.Millisecond)
	cpu0 := cpuTime()
	t0 := time.Now()
	sum := harness.Run(cfg)
	p := &batchPass{start: t0, wall: time.Since(t0), cpu: cpuTime() - cpu0, stats: sum.SMTStats, metrics: sum.Metrics}
	p.heapMiB = hw.Stop()
	for i, r := range sum.Rows {
		p.rows = append(p.rows, passRow{r, inadequateEvery > 0 && i%inadequateEvery == inadequateEvery-1})
	}
	if sum.ProofErr != nil {
		return nil, fmt.Errorf("writing proofs: %w", sum.ProofErr)
	}
	return p, nil
}

// checkDirs runs proof.CheckDir over dirs concurrently, one goroutine
// per directory, and returns the reports and the wall time of the whole.
func checkDirs(dirs ...string) ([]*proof.CheckReport, time.Duration, error) {
	reps := make([]*proof.CheckReport, len(dirs))
	errs := make([]error, len(dirs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, dir := range dirs {
		wg.Add(1)
		go func(i int, dir string) {
			defer wg.Done()
			reps[i], errs[i] = proof.CheckDir(dir)
		}(i, dir)
	}
	wg.Wait()
	took := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("checking proofs: %w", err)
		}
	}
	return reps, took, nil
}

func (p *batchPass) certified() int {
	n := 0
	for _, r := range p.rows {
		if r.Certified {
			n++
		}
	}
	return n
}

// verifyRows checks a pass's rows against the reference. A row must
// carry its reference class; under a wall budget a Timeout or OOM row is
// also accepted (it lowers decided_frac instead).
func verifyRows(ck *checks, ref *Reference, rows []passRow, wallBudget bool) {
	for _, r := range rows {
		ck.attempt()
		want, err := ref.class(r.Fn, r.coarse)
		switch {
		case wallBudget && (r.Class == tv.ClassTimeout || r.Class == tv.ClassOOM):
		case err != nil:
			ck.fail("%v", err)
		case r.Class == want:
		default:
			ck.fail("verdict mismatch: %s (coarse=%t) is %q, reference %q", r.Fn, r.coarse, r.Class, want)
			continue
		}
		if r.ProofErr != nil {
			ck.fail("proof emission failed for %s: %v", r.Fn, r.ProofErr)
		}
	}
}

// verifyCheck counts one proof.CheckDir run; every rejection fails.
func verifyCheck(ck *checks, rep *proof.CheckReport, certified int) {
	ck.attempt()
	for _, rej := range rep.Rejections {
		ck.fail("proofcheck rejection: %s", rej)
	}
	if len(rep.Certified) != certified {
		ck.fail("proofcheck verified %d witnesses, the run certified %d", len(rep.Certified), certified)
	}
}

// counters is the determinism guard's view of a pass.
type counters struct {
	Classes    string `json:"classes"`
	Queries    int64  `json:"queries"`
	Conflicts  int64  `json:"conflicts"`
	Decisions  int64  `json:"decisions"`
	CacheHits  int64  `json:"cache_hits"`
	CNFClauses int64  `json:"cnf_clauses"`
}

func countersOf(rows []passRow, st smt.Stats) counters {
	b := make([]byte, len(rows))
	for i, r := range rows {
		b[i] = "SNTMOU"[r.Class]
	}
	return counters{Classes: string(b), Queries: st.Queries, Conflicts: st.SATConflicts,
		Decisions: st.SATDecisions, CacheHits: st.CacheHits, CNFClauses: st.CNFClauses}
}

// nondeterministic names the counters that differ between repetitions
// of identical work.
func nondeterministic(cs []counters) []string {
	out := []string{}
	for _, c := range cs[1:] {
		f := cs[0]
		for _, d := range []struct {
			name string
			a, b int64
		}{
			{"queries", f.Queries, c.Queries}, {"conflicts", f.Conflicts, c.Conflicts},
			{"decisions", f.Decisions, c.Decisions}, {"cache_hits", f.CacheHits, c.CacheHits},
			{"cnf_clauses", f.CNFClauses, c.CNFClauses},
		} {
			if d.a != d.b && !contains(out, d.name) {
				out = append(out, d.name)
			}
		}
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// arrange orders set longest-first by reference cost, as a batch
// submitter that knows its costs would, and lets the seed shuffle each
// band of arrangeBand functions of similar cost. It then puts the
// designated coarse-liveness functions on the rows
// harness.Config.InadequateEvery validates with coarse liveness.
//
// Both rules keep a seed from choosing the run's cost. In a free shuffle
// the seed decides which heavy functions run side by side and which one
// finishes last, and that alone moved pass wall and the time-to-verdict
// tail by 20-40% between seeds. A coarse validation can cost
// several times a precise one, so the coarse rows are the same
// functions for every seed.
func arrange(set []corpus.Function, ref *Reference, seed int64) []corpus.Function {
	var rest, cs []corpus.Function
	for _, f := range set {
		if contains(ref.CoarseRows, f.Name) {
			cs = append(cs, f)
		} else {
			rest = append(rest, f)
		}
	}
	cost := func(i int) float64 { return ref.Functions[rest[i].Name].FineMS }
	sort.SliceStable(rest, func(i, j int) bool { return cost(i) > cost(j) })
	rng := rand.New(rand.NewSource(seed))
	for lo := 0; lo < len(rest); lo += arrangeBand {
		band := rest[lo:min(lo+arrangeBand, len(rest))]
		rng.Shuffle(len(band), func(i, j int) { band[i], band[j] = band[j], band[i] })
	}
	out := make([]corpus.Function, 0, len(set))
	for len(rest) > 0 {
		if len(out)%inadequateEvery == inadequateEvery-1 && len(cs) > 0 {
			out, cs = append(out, cs[0]), cs[1:]
			continue
		}
		out, rest = append(out, rest[0]), rest[1:]
	}
	return append(out, cs...)
}

// batchSet is the workload's fixed function set (see fig6MaxMS,
// tightMaxMS and tightLadder); the seed only orders it.
func batchSet(fns []corpus.Function, ref *Reference, tight bool) []corpus.Function {
	var set []corpus.Function
	for i, f := range fns {
		cost := ref.Functions[f.Name].FineMS
		switch {
		case tight && i < tightFunctions && (cost <= tightMaxMS || contains(tightLadder, f.Name)):
			set = append(set, f)
		case !tight && cost <= fig6MaxMS:
			set = append(set, f)
		}
	}
	return set
}

// runBatch runs the fig6 or tight workload.
func runBatch(o opts, ref *Reference, out *output) error {
	tight := o.workload == "tight"
	fns, setups, err := batchSetup(out.layers)
	if err != nil {
		return err
	}
	out.setupS = median(setups)
	out.record["setup_reps_s"] = setups

	budget := tv.Budget{MaxTermNodes: maxTermNodes}
	proofDir := ""
	if tight {
		budget.Timeout = tightBudget
		proofDir = filepath.Join(o.work, "proofs")
	}
	inOrder := batchSet(fns, ref, tight)
	out.record["functions"] = len(inOrder)
	set := arrange(inOrder, ref, o.seed)

	// fig6 runs uncertified, so a fixed sample is certified before the
	// measured phase: its verdicts then also pass the independent
	// checker, and check_s_per_fn has a fig6 reading. The sample is
	// certified in one directory per worker and the directories are
	// checked concurrently (a single-threaded check runs at the speed of
	// whichever CPU it lands on).
	var spotDirs []string
	var spotCertified []int
	if !tight {
		sample := inOrder[:min(spotCheckFunctions, len(inOrder))]
		for w := 0; w < workers; w++ {
			dir := filepath.Join(o.work, fmt.Sprintf("spot%d", w))
			part := sample[w*len(sample)/workers : (w+1)*len(sample)/workers]
			p, err := runBatchPass(part, budget, dir, nil)
			if err != nil {
				return err
			}
			verifyRows(out.checks, ref, p.rows, false)
			spotDirs = append(spotDirs, dir)
			spotCertified = append(spotCertified, p.certified())
		}
	}

	// The measured phase: whole passes over the same ordered set until
	// the next one would end more than half a pass past --seconds. Each
	// pass is followed by a proof check: tight checks the pass's own
	// certificates, fig6 checks the spot sample again, so check times
	// are sampled across the whole phase. A traced run makes exactly two
	// passes, the first untraced, so the difference between them is the
	// tracing overhead.
	var passes []*batchPass
	ph0 := samplePhase()
	for {
		var tracer *telemetry.Tracer
		if o.trace && len(passes) == 1 {
			tracer = telemetry.NewTracer()
			out.tracer = tracer
		}
		p, err := runBatchPass(set, budget, proofDir, tracer)
		if err != nil {
			return err
		}
		verifyRows(out.checks, ref, p.rows, tight)
		if tight {
			reps, took, err := checkDirs(proofDir)
			if err != nil {
				return err
			}
			p.report, p.check, p.checked = reps[0], took, p.certified()
			verifyCheck(out.checks, p.report, p.checked)
		} else {
			reps, took, err := checkDirs(spotDirs...)
			if err != nil {
				return err
			}
			p.check = took
			for i, rep := range reps {
				verifyCheck(out.checks, rep, spotCertified[i])
				p.checked += spotCertified[i]
			}
		}
		passes = append(passes, p)
		if o.trace {
			if len(passes) == 2 {
				break
			}
			continue
		}
		elapsed := time.Since(ph0.at)
		if elapsed+(p.wall+p.check)/2 >= o.seconds {
			break
		}
	}
	out.phase = ph0.to(samplePhase())

	// Every end-to-end metric is a median over passes of identical work.
	cs := []counters{}
	var walls, cpus, heaps, decidedFracs, checkPerFn []float64
	var tails []Quantile
	rows := 0
	for _, p := range passes {
		cs = append(cs, countersOf(p.rows, p.stats))
		// A batch user submits the whole pass at once, so a function's
		// time to verdict runs from the pass start to its row.
		var toVerdict []time.Duration
		var classes []tv.Class
		for _, r := range p.rows {
			toVerdict = append(toVerdict, r.Finished.Sub(p.start))
			classes = append(classes, r.Class)
		}
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		heaps = append(heaps, p.heapMiB)
		decidedFracs = append(decidedFracs, decidedFrac(classes))
		tails = append(tails, tail(ms(toVerdict)))
		rows += len(p.rows)
		checkPerFn = append(checkPerFn, p.check.Seconds()/float64(max(1, p.checked)))
	}
	out.record["counters"] = cs
	out.record["nondeterministic"] = nondeterministic(cs)
	out.record["passes"] = len(passes)
	out.record["pass_walls_s"] = walls
	out.fnsPerS = float64(len(set)) / median(walls)
	out.cpuPerFn = median(cpus) / float64(len(set))
	out.latP50 = 1000 * median(walls)
	out.latTail = medianQuantile(tails)
	out.decidedFrac = median(decidedFracs)
	out.peakHeapMiB = median(heaps)

	out.checkPerFn = median(checkPerFn)

	if o.trace {
		out.layers.rows = rows
		out.layers.batchLayers(passes[0], passes[1], out.tracer)
	}
	return nil
}
