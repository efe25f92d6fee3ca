package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"
)

// histBuckets is the number of log2 buckets: bucket i holds durations
// whose nanosecond count has bit length i, i.e. [2^(i-1), 2^i). 64
// buckets cover everything a time.Duration can express.
const histBuckets = 64

// Histogram is a log-scale latency histogram. It is mergeable (Merge)
// and exact in Count/Sum/Min/Max; quantiles are bucket-resolution
// approximations (within 2x). Histogram itself is not goroutine-safe;
// Metrics serializes access.
type Histogram struct {
	Count int64
	Sum   int64 // total nanoseconds
	Min   int64 // ns; valid when Count > 0
	Max   int64 // ns
	// buckets[j] counts bucket lo+j; it spans only the lowest to the
	// highest bucket observed, so the many histograms a batch result
	// carries over the wire stay small.
	lo      int
	buckets []int64
}

// add counts n observations in bucket i, widening the span to hold it.
func (h *Histogram) add(i int, n int64) {
	switch {
	case len(h.buckets) == 0:
		h.lo, h.buckets = i, []int64{0}
	case i < h.lo:
		h.buckets = append(make([]int64, h.lo-i, h.lo-i+len(h.buckets)), h.buckets...)
		h.lo = i
	case i >= h.lo+len(h.buckets):
		h.buckets = append(h.buckets, make([]int64, i+1-h.lo-len(h.buckets))...)
	}
	h.buckets[i-h.lo] += n
}

// clone returns a copy of h that shares no memory with it.
func (h *Histogram) clone() Histogram {
	c := *h
	c.buckets = slices.Clone(h.buckets)
	return c
}

func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	return bits.Len64(uint64(ns))
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if h.Count == 0 || ns < h.Min {
		h.Min = ns
	}
	if ns > h.Max {
		h.Max = ns
	}
	h.Count++
	h.Sum += ns
	h.add(bucketOf(ns), 1)
}

// Merge folds o into h. Merging shards recorded independently yields
// exactly the histogram a single-shard run would have produced.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for j, c := range o.buckets {
		if c != 0 {
			h.add(o.lo+j, c)
		}
	}
}

// Mean returns the exact mean observation.
func (h *Histogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.Sum / h.Count)
}

// Quantile returns an upper bound for the p-quantile (0 < p <= 1) at
// bucket resolution: the upper edge of the bucket containing it, clamped
// to Max.
func (h *Histogram) Quantile(p float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(p * float64(h.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for j, c := range h.buckets {
		i := h.lo + j
		cum += c
		if cum >= target {
			hi := int64(1) << i // upper edge of bucket i
			if hi > h.Max || i == 0 {
				hi = h.Max
			}
			return time.Duration(hi)
		}
	}
	return time.Duration(h.Max)
}

// histJSON is the wire form of a Histogram: exact Count/Sum/Min/Max and
// the non-empty buckets as [index, count] pairs, so decoding restores
// the histogram bit for bit and merges of decoded shards are exact.
// The quantiles are for human readers; decoding ignores them.
type histJSON struct {
	Count   int64      `json:"count"`
	Sum     int64      `json:"sum"`
	Min     int64      `json:"min"`
	Max     int64      `json:"max"`
	P50     int64      `json:"p50"`
	P90     int64      `json:"p90"`
	P99     int64      `json:"p99"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// MarshalJSON encodes h exactly (see histJSON).
func (h Histogram) MarshalJSON() ([]byte, error) {
	out := histJSON{Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
		P50: int64(h.Quantile(0.5)), P90: int64(h.Quantile(0.9)), P99: int64(h.Quantile(0.99))}
	for j, c := range h.buckets {
		if c != 0 {
			out.Buckets = append(out.Buckets, [2]int64{int64(h.lo + j), c})
		}
	}
	return json.Marshal(&out)
}

// UnmarshalJSON decodes the MarshalJSON form, rejecting out-of-range
// buckets and bucket totals that disagree with the count.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var in histJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	var total int64
	for _, bc := range in.Buckets {
		if bc[0] < 0 || bc[0] >= histBuckets || bc[1] <= 0 {
			return fmt.Errorf("telemetry: histogram bucket %d holds %d", bc[0], bc[1])
		}
		total += bc[1]
	}
	if total != in.Count {
		return fmt.Errorf("telemetry: histogram buckets hold %d observations, count says %d", total, in.Count)
	}
	*h = Histogram{Count: in.Count, Sum: in.Sum, Min: in.Min, Max: in.Max}
	if n := len(in.Buckets); n > 0 && in.Buckets[0][0] <= in.Buckets[n-1][0] {
		// The encoder lists buckets in ascending order: size the span
		// once, so a decoded histogram carries no spare capacity.
		h.lo, h.buckets = int(in.Buckets[0][0]), make([]int64, in.Buckets[n-1][0]-in.Buckets[0][0]+1)
	}
	for _, bc := range in.Buckets {
		h.add(int(bc[0]), bc[1])
	}
	return nil
}

// HistBucket is one rendered histogram bucket.
type HistBucket struct {
	Lo, Hi time.Duration // [Lo, Hi)
	Count  int64
}

// Buckets returns the contiguous bucket range between the first and last
// non-empty bucket (nil when the histogram is empty).
func (h *Histogram) Buckets() []HistBucket {
	if h.Count == 0 {
		return nil
	}
	out := make([]HistBucket, 0, len(h.buckets))
	for j, c := range h.buckets {
		i := h.lo + j
		var b HistBucket
		if i > 0 {
			b.Lo = time.Duration(int64(1) << (i - 1))
		}
		b.Hi = time.Duration(int64(1) << i)
		b.Count = c
		out = append(out, b)
	}
	return out
}

// Metrics is a registry of named counters and histograms. A nil *Metrics
// drops everything, so instrumented code can carry one unconditionally.
// All methods are goroutine-safe, but the intended pattern is one private
// registry per worker, merged by the aggregator.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	hists    map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]int64),
		hists:    make(map[string]*Histogram),
	}
}

// Add increments counter name by n. No-op on nil.
func (m *Metrics) Add(name string, n int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += n
	m.mu.Unlock()
}

// Observe records d into histogram name. No-op on nil.
func (m *Metrics) Observe(name string, d time.Duration) {
	m.ObserveVal(name, d.Nanoseconds())
}

// ObserveVal records a raw int64 observation into histogram name — the
// unit-agnostic entry point behind Observe, used directly for byte
// counts (the mem.* series record allocation deltas, not durations).
// No-op on nil.
func (m *Metrics) ObserveVal(name string, v int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h := m.hists[name]
	if h == nil {
		h = &Histogram{}
		m.hists[name] = h
	}
	h.Observe(time.Duration(v))
	m.mu.Unlock()
}

// Counter returns the value of counter name (0 when absent or m is nil).
func (m *Metrics) Counter(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// Hist returns a copy of histogram name (zero histogram when absent or m
// is nil), safe to read without further locking.
func (m *Metrics) Hist(name string) Histogram {
	if m == nil {
		return Histogram{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.hists[name]; h != nil {
		return h.clone()
	}
	return Histogram{}
}

// Snapshot returns copies of the registry contents: all counters and
// all histograms by name. Nil-safe (a nil registry snapshots to nil
// maps); mutating the returned maps does not affect the registry.
func (m *Metrics) Snapshot() (map[string]int64, map[string]Histogram) {
	if m == nil {
		return nil, nil
	}
	return m.snapshot()
}

// snapshot returns copies of the registry contents.
func (m *Metrics) snapshot() (map[string]int64, map[string]Histogram) {
	m.mu.Lock()
	defer m.mu.Unlock()
	counters := make(map[string]int64, len(m.counters))
	for k, v := range m.counters {
		counters[k] = v
	}
	hists := make(map[string]Histogram, len(m.hists))
	for k, h := range m.hists {
		hists[k] = h.clone()
	}
	return counters, hists
}

// Merge folds o into m. Either side may be nil. o must not be receiving
// observations concurrently with the merge.
func (m *Metrics) Merge(o *Metrics) {
	if o == nil {
		return
	}
	m.MergeSnapshot(o.snapshot())
}

// MergeSnapshot folds a Snapshot — typically one decoded from the wire —
// into m: counters add and histograms Merge. No-op on nil.
func (m *Metrics) MergeSnapshot(counters map[string]int64, hists map[string]Histogram) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range counters {
		m.counters[k] += v
	}
	for k, oh := range hists {
		h := m.hists[k]
		if h == nil {
			h = &Histogram{}
			m.hists[k] = h
		}
		h.Merge(&oh)
	}
}
