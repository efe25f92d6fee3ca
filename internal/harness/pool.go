package harness

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/isel"
	"repro/internal/smt"
	"repro/internal/telemetry"
	"repro/internal/tv"
	"repro/internal/vcgen"
)

// Pool is a persistent validation worker pool: the long-lived form of
// the worker loop Run spins up per corpus. Each worker owns a private
// scratch arena (term-table storage and blaster literal slabs) that
// persists across jobs — the warm-solver property the tvd daemon is
// built on: request N+1 reuses the memory request N grew, instead of
// re-paying allocation from a cold heap. Batch runs (Run) and the
// daemon submit through the same Pool, so their per-function behavior
// is identical by construction.
//
// Jobs are delivered over a bounded queue. Submit blocks while the
// queue is full; TrySubmit refuses instead — the backpressure primitive
// the daemon's admission control turns into 429 responses.
type Pool struct {
	workers int
	pf      *smt.Portfolio
	jobs    chan Job
	wg      sync.WaitGroup

	mu     sync.RWMutex
	closed bool
}

// PoolConfig sizes a Pool.
type PoolConfig struct {
	// Workers is the number of concurrent validation goroutines
	// (0 or negative = 1).
	Workers int
	// Queue is the job-queue capacity (0 = unbuffered handoff). A full
	// queue makes TrySubmit return false.
	Queue int
	// Portfolio, when non-nil, sets the escalation ladder's probe budgets
	// for every job. With DisablePortfolio unset and this nil, jobs run
	// the ladder with its default budgets.
	Portfolio *smt.Portfolio
	// DisablePortfolio turns the probe/cube escalation ladder off
	// (ablation).
	DisablePortfolio bool
}

// NewPool starts the workers and returns the pool. Close joins them.
func NewPool(cfg PoolConfig) *Pool {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	pf := cfg.Portfolio
	if pf == nil && !cfg.DisablePortfolio {
		pf = &smt.Portfolio{}
	}
	p := &Pool{workers: workers, pf: pf, jobs: make(chan Job, cfg.Queue)}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			// The worker's scratch lives as long as the pool: reset
			// between jobs, never reallocated, never shared.
			scratch := smt.NewScratch()
			for j := range p.jobs {
				p.runJob(j, scratch)
			}
		}()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Submit enqueues j, blocking while the queue is full. It returns false
// (dropping j) once the pool is closed.
func (p *Pool) Submit(j Job) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	if j.Submitted.IsZero() {
		j.Submitted = time.Now()
	}
	p.jobs <- j
	return true
}

// TrySubmit enqueues j only if queue space is free right now — the
// non-blocking admission check behind the daemon's 429 responses.
func (p *Pool) TrySubmit(j Job) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	if j.Submitted.IsZero() {
		j.Submitted = time.Now()
	}
	select {
	case p.jobs <- j:
		return true
	default:
		return false
	}
}

// Close stops accepting jobs, drains the queue, and joins the workers.
// Every job accepted before Close completes (and its Done callback
// runs) before Close returns — the graceful-drain guarantee the
// daemon's SIGTERM handling relies on.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// Job is one function validation submitted to a Pool.
type Job struct {
	// Fn is the function to validate (name + LLVM IR source).
	Fn corpus.Function
	// Index is the caller's row index, passed through to the result.
	Index int
	// ISel, VCGen, Checker, and Budget configure the pipeline exactly as
	// in tv.Validate. The pool attaches its Portfolio and the worker's
	// scratch to Checker when the job has not set its own.
	ISel    isel.Options
	VCGen   vcgen.Options
	Checker core.Options
	Budget  tv.Budget
	// ProofDir, when set, makes the job write its function's proof
	// artifacts into that directory.
	ProofDir string
	// Tracer, when non-nil, receives the job's span tree.
	Tracer *telemetry.Tracer
	// Submitted is when the job entered the queue (stamped by
	// Submit/TrySubmit when zero); the queue-latency baseline.
	Submitted time.Time
	// Done, when non-nil, receives the result on the worker goroutine.
	Done func(JobResult)
}

// JobResult is the outcome of one pool job.
type JobResult struct {
	// Index echoes Job.Index.
	Index int
	Row   ResultRow
	// Metrics is the job-private registry (per-phase latency, mem.*,
	// class.* counters, solver totals); merge it into a run-wide one.
	Metrics *telemetry.Metrics
}

// poolJobHook, when non-nil, observes each job after the pool attached
// the worker's scratch and portfolio; tests use it to assert arena reuse.
var poolJobHook func(j Job)

// runJob prepares the per-job checker options and runs the validation.
func (p *Pool) runJob(j Job, scratch *smt.Scratch) {
	if j.Checker.Scratch == nil {
		j.Checker.Scratch = scratch
	}
	if j.Checker.Portfolio == nil {
		j.Checker.Portfolio = p.pf
	}
	if poolJobHook != nil {
		poolJobHook(j)
	}
	row, m := validateOne(j)
	if j.Done != nil {
		j.Done(JobResult{Index: j.Index, Row: row, Metrics: m})
	}
}
