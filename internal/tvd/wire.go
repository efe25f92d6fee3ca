// Package tvd is validation-as-a-service: a long-running HTTP daemon
// that validates batches of (IR, function, hints) jobs on a warm
// harness.Pool and remembers every verdict — with its certificate
// artifacts — in a content-addressed result store (internal/store).
//
// The wire protocol is deliberately small. One POST /v1/validate call
// carries a BatchRequest and streams back newline-delimited JSON in the
// telemetry span format (every line parses as a telemetry.Record): one
// "tvd.row" record per completed function, in completion order, then
// one final "tvd.summary" record whose result attribute is the
// BatchResult as a JSON object. Both kinds are written from the typed
// wireRecord and decoded back into it, so the stream is encoded once
// and each response is parsed in one pass. A client that only wants
// progress tails the rows; a client that wants the verdicts reads the
// last record. GET /healthz and GET /metricsz serve liveness and the
// metrics snapshot.
//
// Admission control is upfront: a request is either rejected whole with
// 429 (tenant token budget exhausted, or the daemon's bounded job queue
// full — the Retry-After header says when to come back) or accepted
// whole, so a caller never learns mid-stream that half its batch was
// refused.
package tvd

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/tv"
)

// Wire constants.
const (
	// PathValidate accepts BatchRequest POSTs.
	PathValidate = "/v1/validate"
	// PathHealthz reports liveness (503 while draining).
	PathHealthz = "/healthz"
	// PathMetricsz serves the MetricsSnapshot.
	PathMetricsz = "/metricsz"

	// RecordRow names the per-function progress record of a response
	// stream; its start/duration place the function on the batch
	// timeline (nanosecond offsets from the batch epoch).
	RecordRow = "tvd.row"
	// RecordSummary names the final record; its result attribute holds
	// the BatchResult.
	RecordSummary = "tvd.summary"
	// AttrResult is the summary-record attribute carrying the
	// BatchResult as a JSON object (not a string holding JSON, so the
	// summary is encoded and decoded once).
	AttrResult = "result"
)

// wireRecord is one line of a response stream: the telemetry.Record
// layout with typed attrs, A being rowAttrs or summaryAttrs on the
// server and streamAttrs on the client.
type wireRecord[A any] struct {
	ID      telemetry.SpanID `json:"id"`
	Name    string           `json:"name"`
	StartNS int64            `json:"start_ns"`
	DurNS   int64            `json:"dur_ns"`
	Attrs   A                `json:"attrs"`
}

// rowAttrs are a tvd.row record's attrs; every row carries all four.
type rowAttrs struct {
	Fn     string `json:"fn"`
	Index  int    `json:"index"`
	Class  string `json:"class"`
	Cached bool   `json:"cached"`
}

// summaryAttrs are the tvd.summary record's attrs.
type summaryAttrs struct {
	Result *BatchResult `json:"result"`
}

// streamAttrs decodes the attrs of either record kind.
type streamAttrs struct {
	rowAttrs
	summaryAttrs
}

// rowRecord is a decoded row as the telemetry.Record a client's onRow
// receives: the attrs a generic JSON decode of the line yields (index
// a float64).
func rowRecord(r *wireRecord[streamAttrs]) telemetry.Record {
	a := &r.Attrs.rowAttrs
	return telemetry.Record{
		ID:      r.ID,
		Name:    r.Name,
		StartNS: r.StartNS,
		DurNS:   r.DurNS,
		Attrs: map[string]any{
			"fn":     a.Fn,
			"index":  float64(a.Index),
			"class":  a.Class,
			"cached": a.Cached,
		},
	}
}

// JobRequest is one function validation job.
type JobRequest struct {
	// Fn is the name of the function to validate inside IR.
	Fn string `json:"fn"`
	// IR is the full LLVM IR module text.
	IR string `json:"ir"`
	// MergeStores is the instruction-selection hint (isel.Options); it is
	// part of the job's content address.
	MergeStores bool `json:"merge_stores,omitempty"`
}

// BatchRequest is the body of POST /v1/validate.
type BatchRequest struct {
	// Tenant names the client for token budgeting ("" is the shared
	// default tenant).
	Tenant string `json:"tenant,omitempty"`
	// Jobs is the batch; admission is all-or-nothing.
	Jobs []JobRequest `json:"jobs"`

	// Budget, applied per function. TimeoutSeconds bounds wall clock and
	// is deliberately NOT part of the content address (see JobKey);
	// MaxTermNodes and ConflictBudget are deterministic and are.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	MaxTermNodes   uint64  `json:"max_term_nodes,omitempty"`
	ConflictBudget int64   `json:"conflict_budget,omitempty"`

	// Proofs asks for each row's certificate artifacts in the response,
	// so the client can materialize a proofcheck-able directory.
	Proofs bool `json:"proofs,omitempty"`
	// Trace asks for the server-side span trace of the batch in the
	// response summary.
	Trace bool `json:"trace,omitempty"`
}

// ArtifactJSON is one certificate file of a row ([]byte marshals as
// base64).
type ArtifactJSON struct {
	Name string `json:"name"`
	Data []byte `json:"data"`
}

// RowJSON is one function's result. Timestamps are nanosecond offsets
// from the batch epoch (integer offsets survive JSON exactly; absolute
// float seconds would not).
type RowJSON struct {
	Index     int    `json:"index"`
	Fn        string `json:"fn"`
	Class     string `json:"class"`
	Err       string `json:"err,omitempty"`
	CodeSize  int    `json:"code_size"`
	Certified bool   `json:"certified"`
	ProofErr  string `json:"proof_err,omitempty"`
	// Cached reports the row was served from the result store without
	// re-validating; its certificates are the stored ones.
	Cached bool `json:"cached"`
	// Key is the job's content address in the store (hex).
	Key string `json:"key"`

	SubmittedNS int64 `json:"submitted_ns"`
	StartedNS   int64 `json:"started_ns"`
	FinishedNS  int64 `json:"finished_ns"`
	DurationNS  int64 `json:"duration_ns"`

	// Artifacts carries the row's certificate files when the request set
	// Proofs.
	Artifacts []ArtifactJSON `json:"artifacts,omitempty"`
}

// BatchResult is the final payload of a batch: every row (in request
// order), the run statistics, and the store traffic the batch caused.
type BatchResult struct {
	Rows  []RowJSON          `json:"rows"`
	Stats *harness.StatsJSON `json:"stats"`
	// StoreHits/StoreMisses count this batch's jobs served from /
	// missing the result store (both zero when the daemon runs without
	// a store).
	StoreHits   int `json:"store_hits"`
	StoreMisses int `json:"store_misses"`
	// Trace is the server-side span trace (only when requested).
	Trace []telemetry.Record `json:"trace,omitempty"`
}

// ErrorJSON is the body of a non-200 response.
type ErrorJSON struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on 429s.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// MetricsSnapshot is the body of GET /metricsz.
type MetricsSnapshot struct {
	// Counters and Hists are the daemon-lifetime telemetry registry;
	// histograms use their exact encoding (telemetry.Histogram).
	Counters map[string]int64               `json:"counters"`
	Hists    map[string]telemetry.Histogram `json:"hists"`
	// StoreLen is the number of entries in the result store (-1 without
	// a store). StoreBytes is the total entry-payload size and
	// StoreMaxBytes the configured GC budget (0 = unbounded);
	// StoreQuarantined counts entries the scrubber has moved into
	// quarantine/ (served as clean misses).
	StoreLen         int   `json:"store_len"`
	StoreBytes       int64 `json:"store_bytes,omitempty"`
	StoreMaxBytes    int64 `json:"store_max_bytes,omitempty"`
	StoreQuarantined int   `json:"store_quarantined,omitempty"`
	Draining         bool  `json:"draining"`
	// Workers is the validation pool size; MaxBatch is the largest batch
	// admission can ever accept (min of queue capacity and tenant
	// budget). Clients with more jobs than MaxBatch split them into
	// MaxBatch-sized requests (Client.ValidateAll does this).
	Workers  int `json:"workers"`
	MaxBatch int `json:"max_batch"`
}

// keyVersion stamps the content-address derivation; bump it whenever
// the validator's semantics or its certificate formats change
// incompatibly (old entries then simply miss). v2: binary DRAT traces
// gained a CRC trailer (container version 3), which the checker
// requires, so v1 entries could no longer be re-verified. v3: literals
// became anchor-coded (container version 4), so v2 traces no longer
// decode.
const keyVersion = "tvd/v3"

// JobKey derives the content address of one job from its semantic
// inputs: the pipeline version, the function, the module text, the ISel
// hints, and the deterministic budget knobs. The wall-clock timeout is
// excluded — it cannot change a deterministic verdict, only produce
// Timeout rows, and those are never stored (see storableClass).
func JobKey(j JobRequest, maxTermNodes uint64, conflictBudget int64) store.Key {
	return store.FunctionKey(
		keyVersion,
		j.Fn,
		j.IR,
		fmt.Sprintf("merge_stores=%t", j.MergeStores),
		fmt.Sprintf("nodes=%d;conflicts=%d", maxTermNodes, conflictBudget),
	)
}

// storableClass reports whether a verdict class is deterministic enough
// to remember. Timeout depends on wall clock and machine load; caching
// it would let a slow day poison every future run.
func storableClass(c tv.Class) bool {
	return c != tv.ClassTimeout
}
