package tvd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/telemetry"
	"repro/internal/tv"
)

// Client talks to one tvd daemon.
type Client struct {
	base string
	hc   *http.Client
	// RetryBudget bounds how long Validate keeps retrying 429 responses
	// (honoring Retry-After) before giving up; 0 disables retries.
	RetryBudget time.Duration
}

// NewClient returns a client for addr ("host:port" or a full
// "http://..." base URL).
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{base: strings.TrimRight(addr, "/"), hc: &http.Client{}}
}

// ErrBusy is returned when the daemon refused the batch with 429 and
// the retry budget (if any) ran out.
type ErrBusy struct {
	Message    string
	RetryAfter time.Duration
}

func (e *ErrBusy) Error() string {
	return fmt.Sprintf("tvd: server busy: %s (retry after %s)", e.Message, e.RetryAfter)
}

// Health checks /healthz.
func (c *Client) Health() error {
	resp, err := c.hc.Get(c.base + PathHealthz)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("tvd: health: %s", resp.Status)
	}
	return nil
}

// Metricsz fetches the daemon's metrics snapshot.
func (c *Client) Metricsz() (*MetricsSnapshot, error) {
	resp, err := c.hc.Get(c.base + PathMetricsz)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("tvd: metricsz: %v", err)
	}
	return &snap, nil
}

// ValidateAll validates an arbitrarily large job list by splitting it
// into batches the daemon's admission control can accept (its
// advertised max_batch, from /metricsz) and merging the per-batch
// results into one: rows keep their original indices, store traffic and
// statistics are summed, traces concatenate. Batches run sequentially —
// inside each one the daemon's pool provides the parallelism.
func (c *Client) ValidateAll(req *BatchRequest, onRow func(telemetry.Record)) (*BatchResult, error) {
	chunk := len(req.Jobs)
	if snap, err := c.Metricsz(); err == nil && snap.MaxBatch > 0 && snap.MaxBatch < chunk {
		chunk = snap.MaxBatch
	}
	if len(req.Jobs) <= chunk {
		return c.Validate(req, onRow)
	}
	merged := &BatchResult{Stats: &harness.StatsJSON{Classes: map[string]int{}}}
	// Each batch's records carry span IDs from a fresh per-batch tracer
	// (1, 2, 3, ...), so concatenating them verbatim would duplicate IDs
	// and fail tracelint. Every batch's IDs — streamed rows and the
	// trace in the summary alike — are offset by the running maximum.
	var maxSpanID telemetry.SpanID
	for start := 0; start < len(req.Jobs); start += chunk {
		end := start + chunk
		if end > len(req.Jobs) {
			end = len(req.Jobs)
		}
		sub := *req
		sub.Jobs = req.Jobs[start:end]
		offset := start
		idOffset := maxSpanID
		var batchMax telemetry.SpanID
		rebase := func(rec *telemetry.Record) {
			rec.ID += idOffset
			if rec.Parent != 0 {
				rec.Parent += idOffset
			}
			if rec.ID > batchMax {
				batchMax = rec.ID
			}
		}
		res, err := c.Validate(&sub, func(rec telemetry.Record) {
			rebase(&rec)
			if onRow == nil {
				return
			}
			// Re-base the per-batch row index onto the whole job list.
			if i, ok := rec.Attrs["index"].(float64); ok {
				rec.Attrs["index"] = i + float64(offset)
			}
			onRow(rec)
		})
		if err != nil {
			return nil, fmt.Errorf("tvd: batch %d-%d: %w", start, end-1, err)
		}
		for _, row := range res.Rows {
			row.Index += offset
			merged.Rows = append(merged.Rows, row)
		}
		merged.StoreHits += res.StoreHits
		merged.StoreMisses += res.StoreMisses
		for i := range res.Trace {
			rebase(&res.Trace[i])
			merged.Trace = append(merged.Trace, res.Trace[i])
		}
		mergeStats(merged.Stats, res.Stats)
		if batchMax > maxSpanID {
			maxSpanID = batchMax
		}
	}
	return merged, nil
}

// mergeStats accumulates src into dst. Wall times add (batches run one
// after another) and the speedup is recomputed; counters add and
// histograms merge, so the result is exactly what one batch over all
// the jobs would have reported, quantiles included.
func mergeStats(dst, src *harness.StatsJSON) {
	if src == nil {
		return
	}
	dst.Functions += src.Functions
	if src.Workers > dst.Workers {
		dst.Workers = src.Workers
	}
	dst.WallSeconds += src.WallSeconds
	dst.CPUSeconds += src.CPUSeconds
	if dst.WallSeconds > 0 {
		dst.Speedup = dst.CPUSeconds / dst.WallSeconds
	}
	for class, n := range src.Classes {
		dst.Classes[class] += n
	}
	dst.Certified += src.Certified
	dst.CertFailed += src.CertFailed
	m := telemetry.NewMetrics()
	m.MergeSnapshot(dst.Counters, dst.Hists)
	m.MergeSnapshot(src.Counters, src.Hists)
	dst.Counters, dst.Hists = m.Snapshot()
}

// Validate submits one batch and consumes the streaming response.
// onRow, when non-nil, is called for each tvd.row progress record as it
// arrives (in completion order). The returned BatchResult carries every
// row in request order. 429 responses are retried within RetryBudget,
// sleeping the server-provided Retry-After between attempts.
func (c *Client) Validate(req *BatchRequest, onRow func(telemetry.Record)) (*BatchResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(c.RetryBudget)
	for {
		res, retry, err := c.validateOnce(body, onRow)
		if err == nil {
			return res, nil
		}
		if _, ok := err.(*ErrBusy); ok && c.RetryBudget > 0 && time.Now().Add(retry).Before(deadline) {
			time.Sleep(retry)
			continue
		}
		return nil, err
	}
}

// validateOnce performs one POST attempt. On 429 it returns an *ErrBusy
// and the server's suggested wait.
func (c *Client) validateOnce(body []byte, onRow func(telemetry.Record)) (*BatchResult, time.Duration, error) {
	resp, err := c.hc.Post(c.base+PathValidate, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		wait := time.Second
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
			wait = time.Duration(ra) * time.Second
		}
		var ej ErrorJSON
		json.NewDecoder(resp.Body).Decode(&ej)
		return nil, wait, &ErrBusy{Message: ej.Error, RetryAfter: wait}
	}
	if resp.StatusCode != http.StatusOK {
		var ej ErrorJSON
		json.NewDecoder(resp.Body).Decode(&ej)
		if ej.Error == "" {
			ej.Error = resp.Status
		}
		return nil, 0, fmt.Errorf("tvd: %s", ej.Error)
	}

	res, err := readStream(resp.Body, onRow)
	return res, 0, err
}

// readStream decodes a response stream in one pass: each record goes
// straight into the typed wireRecord, the summary's BatchResult
// included, with no line buffer and no second parse. Rows go to onRow
// as they arrive; records of other names are skipped. The decoder's
// buffer grows to the largest record, the summary, which can carry
// megabytes of base64 artifacts. A stream that ends without a complete
// summary carrying a result is an error, never a partial result.
func readStream(r io.Reader, onRow func(telemetry.Record)) (*BatchResult, error) {
	dec := json.NewDecoder(r)
	var result *BatchResult
	for {
		var rec wireRecord[streamAttrs]
		err := dec.Decode(&rec)
		if err == io.EOF {
			break
		}
		var typeErr *json.UnmarshalTypeError
		if errors.As(err, &typeErr) && rec.Name != RecordRow && rec.Name != RecordSummary {
			// A record this client does not know may reuse an attr name
			// with another type; the decoder has consumed it whole.
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("tvd: bad stream record: %v", err)
		}
		switch rec.Name {
		case RecordRow:
			if onRow != nil {
				onRow(rowRecord(&rec))
			}
		case RecordSummary:
			if rec.Attrs.Result == nil {
				return nil, fmt.Errorf("tvd: summary record without %s", AttrResult)
			}
			result = rec.Attrs.Result
			// The result outlives the stream, so it keeps no spare row
			// capacity (a decoded slice grows by doubling) and no
			// per-row copy of a class name.
			result.Rows = slices.Clone(result.Rows)
			for i := range result.Rows {
				if c, ok := tv.ParseClass(result.Rows[i].Class); ok {
					result.Rows[i].Class = c.String()
				}
			}
		}
	}
	if result == nil {
		return nil, fmt.Errorf("tvd: stream ended without a summary record")
	}
	return result, nil
}
