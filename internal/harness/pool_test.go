package harness

import (
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/smt"
	"repro/internal/tv"
)

// poolCorpus returns a tiny deterministic corpus for pool tests.
func poolCorpus(n int) []corpus.Function {
	return corpus.Generate(corpus.Profile{
		Seed: 3, Functions: n, MeanSize: 1.8, SizeSigma: 0.4,
		LoopWeight: 0.3, BranchWeight: 0.5,
	})
}

func TestPoolTimestamps(t *testing.T) {
	fns := poolCorpus(3)
	p := NewPool(PoolConfig{Workers: 2, Queue: 4})
	var (
		mu   sync.Mutex
		rows []ResultRow
	)
	before := time.Now()
	for i, f := range fns {
		ok := p.Submit(Job{
			Fn: f, Index: i, Budget: tv.Budget{MaxTermNodes: 2_000_000},
			Done: func(res JobResult) {
				mu.Lock()
				rows = append(rows, res.Row)
				mu.Unlock()
			},
		})
		if !ok {
			t.Fatalf("Submit %d refused on an open pool", i)
		}
	}
	p.Close()
	if len(rows) != len(fns) {
		t.Fatalf("Done ran %d times, want %d", len(rows), len(fns))
	}
	for _, r := range rows {
		if r.Submitted.Before(before) || r.Submitted.IsZero() {
			t.Errorf("%s: Submitted %v not stamped by Submit", r.Fn, r.Submitted)
		}
		if r.Started.Before(r.Submitted) {
			t.Errorf("%s: Started %v before Submitted %v", r.Fn, r.Started, r.Submitted)
		}
		if r.Finished.Before(r.Started) {
			t.Errorf("%s: Finished %v before Started %v", r.Fn, r.Finished, r.Started)
		}
		if got := r.Finished.Sub(r.Started); got < r.Duration {
			t.Errorf("%s: Finished-Started %v < Duration %v", r.Fn, got, r.Duration)
		}
	}
}

func TestPoolBackpressure(t *testing.T) {
	// One worker, held busy by a gate; queue of one. The first TrySubmit
	// occupies the worker, the second fills the queue, the third must be
	// refused — that refusal is the daemon's 429.
	fns := poolCorpus(1)
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	prev := validateHook
	validateHook = func(i int, f corpus.Function) {
		once.Do(func() { close(entered) })
		<-gate
	}
	defer func() { validateHook = prev }()

	p := NewPool(PoolConfig{Workers: 1, Queue: 1})
	job := Job{Fn: fns[0], Budget: tv.Budget{MaxTermNodes: 1_000_000}}
	if !p.TrySubmit(job) {
		t.Fatal("first TrySubmit refused by an idle pool")
	}
	<-entered // the worker is now inside the gated job
	if !p.TrySubmit(job) {
		t.Fatal("second TrySubmit refused with queue space free")
	}
	if p.TrySubmit(job) {
		t.Fatal("third TrySubmit accepted by a full queue")
	}
	close(gate)
	p.Close()
	if p.TrySubmit(job) || p.Submit(job) {
		t.Fatal("submit accepted after Close")
	}
}

func TestPoolDrain(t *testing.T) {
	// Close must run every accepted job's Done before returning.
	fns := poolCorpus(6)
	p := NewPool(PoolConfig{Workers: 2, Queue: len(fns)})
	var done sync.Map
	for i, f := range fns {
		i := i
		p.Submit(Job{Fn: f, Index: i, Budget: tv.Budget{MaxTermNodes: 2_000_000},
			Done: func(res JobResult) { done.Store(i, res.Row.Class) }})
	}
	p.Close()
	for i := range fns {
		if _, ok := done.Load(i); !ok {
			t.Errorf("job %d not completed by Close", i)
		}
	}
	// Close is idempotent.
	p.Close()
}

func TestPoolScratchPersists(t *testing.T) {
	// The same worker must reuse one scratch arena across jobs — the
	// warm-pool property the daemon is built on. With one worker, every
	// job must see the identical scratch pointer.
	fns := poolCorpus(4)
	var (
		mu       sync.Mutex
		scratchs []*smt.Scratch
	)
	prev := poolJobHook
	poolJobHook = func(j Job) {
		mu.Lock()
		scratchs = append(scratchs, j.Checker.Scratch)
		mu.Unlock()
	}
	defer func() { poolJobHook = prev }()

	p := NewPool(PoolConfig{Workers: 1, Queue: len(fns)})
	for i, f := range fns {
		p.Submit(Job{Fn: f, Index: i, Budget: tv.Budget{MaxTermNodes: 2_000_000}})
	}
	p.Close()
	if len(scratchs) != len(fns) {
		t.Fatalf("hook saw %d jobs, want %d", len(scratchs), len(fns))
	}
	for i, s := range scratchs {
		if s == nil {
			t.Fatalf("job %d ran without a scratch arena", i)
		}
		if s != scratchs[0] {
			t.Fatalf("job %d got a different arena than job 0: reuse broken", i)
		}
	}
}
