package tvd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/isel"
	"repro/internal/proof"
	"repro/internal/smt"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/tv"
)

// ServerConfig sizes the daemon.
type ServerConfig struct {
	// Workers is the validation pool size (0 = 1... callers usually pass
	// runtime.GOMAXPROCS(0)).
	Workers int
	// Queue is the pool's bounded job-queue capacity (default 2×Workers).
	Queue int
	// StoreDir, when non-empty, enables the persistent result store.
	StoreDir string
	// StoreMaxBytes, when > 0, byte-bounds the store: Put overflow runs
	// a synchronous LRU GC (oldest access evicted first, whole entries
	// only) and the daemon re-runs GC every GCInterval as a backstop
	// against growth the gauge missed (other writers, manual copies).
	StoreMaxBytes int64
	// GCInterval paces the periodic GC (default 30s; only used when
	// StoreMaxBytes > 0).
	GCInterval time.Duration
	// ScrubInterval, when > 0, starts the background scrubber: every
	// interval it samples ScrubSample entries, decode/CRC-checks them,
	// re-verifies ScrubFraction of them end to end with the proofcheck
	// core, and quarantines failures (served afterwards as clean
	// misses). The scrubber stops on Close.
	ScrubInterval time.Duration
	// ScrubSample is entries per scrub round (default 32).
	ScrubSample int
	// ScrubFraction in [0,1] is the share of scanned entries re-verified
	// end to end (default 0 = decode/CRC only).
	ScrubFraction float64
	// TenantBudget is the per-tenant token budget: the number of jobs a
	// tenant may have admitted at once (default 4×Workers). A batch
	// needing more tokens than the tenant has free is refused with 429.
	TenantBudget int
	// MaxBodyBytes bounds a request body (default 64 MB).
	MaxBodyBytes int64
	// Metrics receives the daemon's counters and histograms; nil creates
	// a private registry.
	Metrics *telemetry.Metrics
	// WorkDir holds the per-job scratch proof directories (default
	// os.TempDir()).
	WorkDir string
}

// Server is the daemon: an http.Handler plus the warm pool and store
// behind it. Create with NewServer, serve via Handler, stop with Close.
type Server struct {
	cfg      ServerConfig
	pool     *harness.Pool
	store    *store.Store // nil without a store
	metrics  *telemetry.Metrics
	mux      *http.ServeMux
	draining atomic.Bool

	// scrubber/gcStop are the store-lifecycle background halves; both
	// stop before the pool joins in Close.
	scrubber  *store.Scrubber // nil when scrubbing is off
	gcStop    chan struct{}   // nil when periodic GC is off
	gcDone    chan struct{}
	closeOnce sync.Once

	// inflight is the global admitted-job count, bounded by maxInflight
	// (workers + queue): the "bounded request queue" half of admission.
	inflight    atomic.Int64
	maxInflight int64

	// tenants tracks per-tenant admitted-job counts (token budgets).
	tenantMu sync.Mutex
	tenants  map[string]int

	// active counts in-flight HTTP batch requests so Close can wait for
	// them after the listener stops accepting. admitMu orders each
	// admission (drain check + active.Add, under the read lock) against
	// BeginDrain (flag flip, under the write lock): every Add either
	// happens before the flip, and so before Close's Wait, or sees the
	// flag and refuses. A WaitGroup must not be Added from zero
	// concurrently with Wait.
	admitMu sync.RWMutex
	active  sync.WaitGroup
}

// NewServer opens the store (if configured), starts the pool, and
// returns the daemon.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 2 * cfg.Workers
	}
	if cfg.TenantBudget <= 0 {
		cfg.TenantBudget = 4 * cfg.Workers
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.WorkDir == "" {
		cfg.WorkDir = os.TempDir()
	}
	m := cfg.Metrics
	if m == nil {
		m = telemetry.NewMetrics()
	}
	s := &Server{
		cfg:         cfg,
		metrics:     m,
		maxInflight: int64(cfg.Workers + cfg.Queue),
		tenants:     map[string]int{},
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, m)
		if err != nil {
			return nil, err
		}
		s.store = st
		if cfg.StoreMaxBytes > 0 {
			st.SetMaxBytes(cfg.StoreMaxBytes)
			st.GC(cfg.StoreMaxBytes) // enforce the bound over what a prior run left
			interval := cfg.GCInterval
			if interval <= 0 {
				interval = 30 * time.Second
			}
			s.gcStop = make(chan struct{})
			s.gcDone = make(chan struct{})
			go func() {
				defer close(s.gcDone)
				for {
					select {
					case <-s.gcStop:
						return
					case <-time.After(interval):
						st.GC(cfg.StoreMaxBytes)
					}
				}
			}()
		}
		if cfg.ScrubInterval > 0 {
			s.scrubber = st.StartScrubber(store.ScrubberConfig{
				ScrubConfig: store.ScrubConfig{Fraction: cfg.ScrubFraction},
				Interval:    cfg.ScrubInterval,
				Sample:      cfg.ScrubSample,
			})
		}
	}
	s.pool = harness.NewPool(harness.PoolConfig{Workers: cfg.Workers, Queue: cfg.Queue})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc(PathValidate, s.handleValidate)
	s.mux.HandleFunc(PathHealthz, s.handleHealthz)
	s.mux.HandleFunc(PathMetricsz, s.handleMetricsz)
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the daemon's registry.
func (s *Server) Metrics() *telemetry.Metrics { return s.metrics }

// MaxBatch is the largest batch admission can accept: the smaller of
// the global inflight bound (workers + queue) and the tenant budget.
func (s *Server) MaxBatch() int {
	if int(s.maxInflight) < s.cfg.TenantBudget {
		return int(s.maxInflight)
	}
	return s.cfg.TenantBudget
}

// BeginDrain flips the daemon into draining mode: /healthz turns 503
// (load balancers stop routing here) and new batches are refused with
// 503. Already-admitted batches keep running.
func (s *Server) BeginDrain() {
	s.admitMu.Lock()
	s.draining.Store(true)
	s.admitMu.Unlock()
}

// Close drains gracefully: no new batches, every admitted job finishes
// (and lands in the store), the store-lifecycle goroutines (periodic GC
// and the background scrubber) stop, and the pool joins. Call after the
// HTTP server stopped accepting connections (http.Server.Shutdown).
// Idempotent.
func (s *Server) Close() {
	s.BeginDrain()
	s.active.Wait()
	s.closeOnce.Do(func() {
		if s.gcStop != nil {
			close(s.gcStop)
			<-s.gcDone
		}
		if s.scrubber != nil {
			s.scrubber.Close()
		}
	})
	s.pool.Close()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	snap := MetricsSnapshot{
		StoreLen: -1,
		Draining: s.draining.Load(),
		Workers:  s.cfg.Workers,
		MaxBatch: s.MaxBatch(),
	}
	snap.Counters, snap.Hists = s.metrics.Snapshot()
	if s.store != nil {
		snap.StoreLen = s.store.Len()
		snap.StoreBytes = s.store.Usage()
		snap.StoreMaxBytes = s.store.MaxBytes()
		snap.StoreQuarantined = s.store.QuarantineLen()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&snap)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, retryAfter int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(&ErrorJSON{
		Error:             fmt.Sprintf(format, args...),
		RetryAfterSeconds: retryAfter,
	})
}

// admit reserves n job tokens for tenant against both the global
// inflight bound and the tenant's budget. It is all-or-nothing.
func (s *Server) admit(tenant string, n int) (release func(k int), err error) {
	if int64(n) > s.maxInflight {
		return nil, fmt.Errorf("batch of %d jobs exceeds the daemon's queue capacity %d; split it",
			n, s.maxInflight)
	}
	if n > s.cfg.TenantBudget {
		return nil, fmt.Errorf("batch of %d jobs exceeds tenant budget %d; split it",
			n, s.cfg.TenantBudget)
	}
	for {
		cur := s.inflight.Load()
		if cur+int64(n) > s.maxInflight {
			return nil, fmt.Errorf("job queue full (%d/%d in flight)", cur, s.maxInflight)
		}
		if s.inflight.CompareAndSwap(cur, cur+int64(n)) {
			break
		}
	}
	s.tenantMu.Lock()
	if s.tenants[tenant]+n > s.cfg.TenantBudget {
		used := s.tenants[tenant]
		s.tenantMu.Unlock()
		s.inflight.Add(int64(-n))
		return nil, fmt.Errorf("tenant %q budget exhausted (%d/%d tokens in use)",
			tenant, used, s.cfg.TenantBudget)
	}
	s.tenants[tenant] += n
	s.tenantMu.Unlock()
	// release returns k of the reserved tokens (call per completed job,
	// or once with the remainder on early exit).
	return func(k int) {
		if k <= 0 {
			return
		}
		s.inflight.Add(int64(-k))
		s.tenantMu.Lock()
		s.tenants[tenant] -= k
		if s.tenants[tenant] <= 0 {
			delete(s.tenants, tenant)
		}
		s.tenantMu.Unlock()
	}, nil
}

// pendingJob is one admitted job on its way through the pool.
type pendingJob struct {
	req JobRequest
	key store.Key
	// dir is the per-job scratch proof directory that receives the
	// function's artifact set.
	dir string
	// proofErr records a proof-dir creation failure so finishJob can
	// surface it on the row (the job itself still validates,
	// uncertified).
	proofErr error
}

func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, 0, "POST only")
		return
	}
	// Check the drain flag and register with the in-flight group as one
	// step under admitMu (see Server.admitMu): a batch admitted here is
	// waited for by Close, and one arriving after BeginDrain refuses.
	s.admitMu.RLock()
	if s.draining.Load() {
		s.admitMu.RUnlock()
		httpError(w, http.StatusServiceUnavailable, 0, "draining")
		return
	}
	s.active.Add(1)
	s.admitMu.RUnlock()
	defer s.active.Done()

	var req BatchRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, 0, "bad request body: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, 0, "empty batch")
		return
	}
	for i, j := range req.Jobs {
		if j.Fn == "" || j.IR == "" {
			httpError(w, http.StatusBadRequest, 0, "job %d: fn and ir are required", i)
			return
		}
	}

	// Resolve store hits before admission: hits cost no pool capacity,
	// so only the misses need tokens.
	hits := make([]*store.Entry, len(req.Jobs))
	keys := make([]store.Key, len(req.Jobs))
	misses := 0
	for i, j := range req.Jobs {
		keys[i] = JobKey(j, req.MaxTermNodes, req.ConflictBudget)
		if s.store != nil {
			if e, ok := s.store.Get(keys[i]); ok {
				hits[i] = e
				continue
			}
		}
		misses++
	}

	release, err := s.admit(req.Tenant, misses)
	if err != nil {
		s.metrics.Add("tvd.rejected", 1)
		httpError(w, http.StatusTooManyRequests, 1, "%v", err)
		return
	}
	outstanding := misses
	defer func() { release(outstanding) }()

	s.metrics.Add("tvd.batches", 1)
	s.metrics.Add("tvd.jobs", int64(len(req.Jobs)))

	var tracer *telemetry.Tracer
	if req.Trace {
		tracer = telemetry.NewTracer()
	}
	budget := tv.Budget{
		Timeout:        time.Duration(req.TimeoutSeconds * float64(time.Second)),
		MaxTermNodes:   req.MaxTermNodes,
		ConflictBudget: req.ConflictBudget,
	}

	epoch := time.Now()
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	batchM := telemetry.NewMetrics()
	result := &BatchResult{Rows: make([]RowJSON, len(req.Jobs))}
	var cpu time.Duration

	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Serve the hits first: they are ready now, and streaming them (one
	// flush for all of them) before the misses start lands warm
	// verdicts with zero queue latency.
	for i := range req.Jobs {
		if hits[i] == nil {
			continue
		}
		result.Rows[i] = s.rowFromEntry(i, keys[i], hits[i], req.Proofs, epoch)
		result.StoreHits++
		batchM.Add("tvd.batch.store_hit", 1)
		writeRow(enc, &result.Rows[i])
	}
	if result.StoreHits > 0 {
		flush()
	}
	result.StoreMisses = misses

	// Submit the misses. Done callbacks only forward to the channel —
	// artifact collection and store writes happen on this goroutine, so
	// pool workers never block on the store.
	results := make(chan harness.JobResult, misses)
	pending := make(map[int]*pendingJob, misses)
	for i := range req.Jobs {
		if hits[i] != nil {
			continue
		}
		pj := &pendingJob{req: req.Jobs[i], key: keys[i]}
		if dir, err := os.MkdirTemp(s.cfg.WorkDir, "tvd-job-"); err == nil {
			pj.dir = dir
		} else {
			// Degrade to uncertified validation rather than failing the
			// batch; finishJob surfaces the recorded error on the row.
			s.metrics.Add("tvd.proofdir_fail", 1)
			pj.proofErr = err
		}
		pending[i] = pj
		s.pool.Submit(harness.Job{
			Fn:    corpus.Function{Name: req.Jobs[i].Fn, Src: req.Jobs[i].IR},
			Index: i,
			ISel:  isel.Options{MergeStores: req.Jobs[i].MergeStores},
			// A fresh per-job VC cache keeps ref certificates resolvable
			// within the job's own artifact set — the property that makes
			// a store entry independently checkable (proofcheck -store).
			Checker:  core.Options{VCCache: smt.NewCache()},
			Budget:   budget,
			ProofDir: pj.dir,
			Tracer:   tracer,
			Done:     func(res harness.JobResult) { results <- res },
		})
	}
	for done := 0; done < misses; done++ {
		res := <-results
		pj := pending[res.Index]
		result.Rows[res.Index] = s.finishJob(pj, res, req.Proofs, epoch)
		if d := res.Row.Started.Sub(res.Row.Submitted); d >= 0 {
			batchM.Observe("tvd.queue", d)
		}
		batchM.Merge(res.Metrics)
		cpu += res.Row.Duration
		release(1)
		outstanding--
		writeRow(enc, &result.Rows[res.Index])
		flush()
	}

	// Batch summary: the same StatsJSON a local run prints.
	sum := &harness.Summary{
		Total:    len(req.Jobs),
		Workers:  s.pool.Workers(),
		WallTime: time.Since(epoch),
		CPUTime:  cpu,
		Metrics:  batchM,
	}
	for _, row := range result.Rows {
		c, _ := tv.ParseClass(row.Class)
		sum.Rows = append(sum.Rows, harness.ResultRow{
			Fn: row.Fn, Class: c, CodeSize: row.CodeSize,
			Duration: time.Duration(row.DurationNS), Certified: row.Certified,
		})
		if row.Certified {
			sum.Certified++
		}
		if row.ProofErr != "" {
			sum.CertFailed++
		}
	}
	result.Stats = sum.StatsJSON()
	if tracer != nil {
		result.Trace = tracer.Records()
	}
	s.metrics.Merge(batchM)
	s.metrics.Observe("tvd.batch.wall", sum.WallTime)

	// A summary that cannot be encoded or written (a gone client) is
	// counted; the client sees a stream without a summary, an error.
	if err := writeSummary(enc, len(req.Jobs), time.Since(epoch), result); err != nil {
		s.metrics.Add("tvd.summary_fail", 1)
	}
	flush()
}

// writeRow encodes row's tvd.row record: span ID index+1, its run on
// the batch timeline, and the four progress attrs. handleValidate drops
// its error: a failed write means the client went away, and the batch
// still runs to the end so its misses land in the store.
func writeRow(enc *json.Encoder, row *RowJSON) error {
	return enc.Encode(&wireRecord[rowAttrs]{
		ID:      telemetry.SpanID(row.Index + 1),
		Name:    RecordRow,
		StartNS: row.StartedNS,
		DurNS:   row.FinishedNS - row.StartedNS,
		Attrs:   rowAttrs{Fn: row.Fn, Index: row.Index, Class: row.Class, Cached: row.Cached},
	})
}

// writeSummary encodes the final tvd.summary record of a batch of n
// jobs, at offset at from the batch epoch, carrying result.
func writeSummary(enc *json.Encoder, n int, at time.Duration, result *BatchResult) error {
	return enc.Encode(&wireRecord[summaryAttrs]{
		ID:      telemetry.SpanID(n + 1),
		Name:    RecordSummary,
		StartNS: at.Nanoseconds(),
		Attrs:   summaryAttrs{Result: result},
	})
}

// rowFromEntry turns a store hit into a response row. The verdict is
// trusted only as far as its certificates: Certified comes from the
// entry, and with Proofs the caller gets the artifacts to re-check it.
func (s *Server) rowFromEntry(index int, k store.Key, e *store.Entry, withArtifacts bool, epoch time.Time) RowJSON {
	now := time.Since(epoch).Nanoseconds()
	row := RowJSON{
		Index:       index,
		Fn:          e.Meta.Function,
		Class:       e.Meta.Class,
		Err:         e.Meta.Err,
		CodeSize:    e.Meta.CodeSize,
		Certified:   e.Meta.Certified,
		Cached:      true,
		Key:         k.Hex(),
		SubmittedNS: now,
		StartedNS:   now,
		FinishedNS:  now,
	}
	if withArtifacts {
		for _, a := range e.Artifacts {
			row.Artifacts = append(row.Artifacts, ArtifactJSON{Name: a.Name, Data: a.Data})
		}
	}
	return row
}

// finishJob collects the job's artifact set, stores the verdict, and
// builds the response row.
func (s *Server) finishJob(pj *pendingJob, res harness.JobResult, withArtifacts bool, epoch time.Time) RowJSON {
	row := RowJSON{
		Index:       res.Index,
		Fn:          res.Row.Fn,
		Class:       res.Row.Class.String(),
		CodeSize:    res.Row.CodeSize,
		Certified:   res.Row.Certified,
		Key:         pj.key.Hex(),
		SubmittedNS: res.Row.Submitted.Sub(epoch).Nanoseconds(),
		StartedNS:   res.Row.Started.Sub(epoch).Nanoseconds(),
		FinishedNS:  res.Row.Finished.Sub(epoch).Nanoseconds(),
		DurationNS:  res.Row.Duration.Nanoseconds(),
	}
	if res.Row.Err != nil {
		row.Err = res.Row.Err.Error()
	}
	if res.Row.ProofErr != nil {
		row.ProofErr = res.Row.ProofErr.Error()
	}
	if pj.proofErr != nil && row.ProofErr == "" {
		row.ProofErr = pj.proofErr.Error()
	}
	if pj.dir != "" {
		arts := collectArtifacts(pj.dir, pj.req.Fn)
		if row.ProofErr == "" && s.store != nil && storableClass(res.Row.Class) {
			entry := &store.Entry{
				Meta: store.Meta{
					Function:      res.Row.Fn,
					Class:         row.Class,
					Err:           row.Err,
					CodeSize:      res.Row.CodeSize,
					Certified:     res.Row.Certified,
					CreatedUnixNS: time.Now().UnixNano(),
				},
				Artifacts: arts,
			}
			if err := s.store.Put(pj.key, entry); err != nil {
				s.metrics.Add("tvd.store_put_fail", 1)
			}
		}
		if withArtifacts {
			for _, a := range arts {
				row.Artifacts = append(row.Artifacts, ArtifactJSON{Name: a.Name, Data: a.Data})
			}
		}
		os.RemoveAll(pj.dir)
	}
	return row
}

// collectArtifacts reads the four per-function artifact files of a
// self-contained proof set (certs, drat, witness, terms); absent files
// (no trace, no witness) are simply omitted.
func collectArtifacts(dir, function string) []store.Artifact {
	base := proof.FileBase(function)
	var out []store.Artifact
	for _, suffix := range []string{
		proof.CertsSuffix, proof.DratSuffix, proof.WitnessSuffix, proof.TermsSuffix,
	} {
		name := base + suffix
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		out = append(out, store.Artifact{Name: name, Data: data})
	}
	return out
}
