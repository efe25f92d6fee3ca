// Package telemetry is the observability substrate of the validation
// pipeline: a tracing layer recording one span per pipeline phase (parse,
// ISel, VC generation, per-sync-point checking, every SMT query) and a
// metrics registry of counters and log-scale latency histograms.
//
// Both halves are built for the harness's worker pool:
//
//   - The Tracer is lock-free — starting a span is one atomic increment
//     and an allocation; ending one publishes it with a compare-and-swap.
//     Spans from any number of goroutines interleave safely.
//   - Metrics registries are mergeable: each worker records into a private
//     registry and the harness folds them together, so the hot path never
//     contends on a shared map.
//   - Everything is nil-safe. A nil *Tracer returns nil *Spans whose
//     methods are no-ops, and a nil *Metrics drops observations, so
//     instrumented code pays only a nil check when telemetry is off.
//
// The package depends on the standard library only and imports nothing
// from this repository, so every layer (sat, smt, core, isel, vcgen, tv,
// harness) can use it without cycles.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// SpanID identifies a span within one Tracer. 0 means "no span" and is
// the parent of root spans.
type SpanID uint64

// Attr is one key/value annotation on a span. Values should be strings,
// bools, or integer/float types so the JSONL encoding stays portable.
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Record is one finished span as it appears in the JSONL trace: offsets
// are nanoseconds since the tracer's epoch (its creation time), so spans
// from all workers share a single monotonic timeline.
type Record struct {
	ID      SpanID         `json:"id"`
	Parent  SpanID         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartNS int64          `json:"start_ns"`
	DurNS   int64          `json:"dur_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// End returns the span's end offset in nanoseconds since the epoch.
func (r Record) End() int64 { return r.StartNS + r.DurNS }

// Tracer collects spans. The zero value is not usable; a nil Tracer is
// the disabled tracer (all operations are no-ops). Create with NewTracer.
type Tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	// done is the most recently finished span; each finished span links
	// to the one finished before it. End publishes with one
	// compare-and-swap, so a goroutine never waits on another between
	// two of its spans.
	done atomic.Pointer[Span]
	n    atomic.Int64
}

// NewTracer returns an empty tracer whose epoch is now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// Span is an in-flight span. It is owned by the goroutine that started it
// until End; a nil Span (from a nil Tracer) ignores all operations.
type Span struct {
	t     *Tracer
	rec   Record // DurNS and Attrs are filled in by End
	attrs []Attr
	prev  *Span // the span finished before this one (set by End)
}

// Start begins a span under parent (0 for a root span). On a nil tracer
// it returns nil, which every Span method tolerates — the disabled path
// costs exactly one nil check per call site. The start time is taken
// before the span is allocated, so the span covers its own bookkeeping.
func (t *Tracer) Start(parent SpanID, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	start := time.Since(t.epoch)
	return &Span{
		t: t,
		rec: Record{
			ID:      SpanID(t.nextID.Add(1)),
			Parent:  parent,
			Name:    name,
			StartNS: start.Nanoseconds(),
		},
		attrs: attrs,
	}
}

// ID returns the span's identifier (0 for a nil span), used to parent
// child spans.
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

// SetAttr annotates the span. No-op on nil.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End finishes the span and publishes its record to the tracer. No-op on
// nil. End must be called at most once. The record is built before the
// end time is taken and published without a lock, so whatever End
// allocates is charged to the span and the gap to the caller's next span
// is a few instructions.
func (s *Span) End() {
	if s == nil {
		return
	}
	if len(s.attrs) > 0 {
		s.rec.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			s.rec.Attrs[a.Key] = a.Value
		}
		s.attrs = nil
	}
	s.rec.DurNS = time.Since(s.t.epoch).Nanoseconds() - s.rec.StartNS
	for {
		prev := s.t.done.Load()
		s.prev = prev
		if s.t.done.CompareAndSwap(prev, s) {
			break
		}
	}
	s.t.n.Add(1)
}

// Len reports the number of finished spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return int(t.n.Load())
}

// Records returns a copy of the finished spans in End order (children
// before their parents).
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	out := make([]Record, 0, t.n.Load())
	for s := t.done.Load(); s != nil; s = s.prev {
		out = append(out, s.rec)
	}
	slices.Reverse(out)
	return out
}

// WriteJSONL writes one JSON object per finished span.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range t.Records() {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a trace written by WriteJSONL. Blank lines are
// ignored; any other malformed line is an error.
func ReadJSONL(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Lint validates a span set: IDs must be unique and non-zero, every
// non-zero parent must exist, and every child's interval must lie within
// its parent's. It returns the first violation found (spans are checked
// in ascending start order for a deterministic report).
func Lint(records []Record) error {
	byID := make(map[SpanID]Record, len(records))
	for _, r := range records {
		if r.ID == 0 {
			return fmt.Errorf("telemetry: span %q has id 0", r.Name)
		}
		if r.DurNS < 0 {
			return fmt.Errorf("telemetry: span %d (%s) has negative duration %d", r.ID, r.Name, r.DurNS)
		}
		if prev, dup := byID[r.ID]; dup {
			return fmt.Errorf("telemetry: duplicate span id %d (%s and %s)", r.ID, prev.Name, r.Name)
		}
		byID[r.ID] = r
	}
	sorted := make([]Record, len(records))
	copy(sorted, records)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].StartNS < sorted[j].StartNS })
	for _, r := range sorted {
		if r.Parent == 0 {
			continue
		}
		p, ok := byID[r.Parent]
		if !ok {
			return fmt.Errorf("telemetry: span %d (%s) references missing parent %d", r.ID, r.Name, r.Parent)
		}
		if r.StartNS < p.StartNS || r.End() > p.End() {
			return fmt.Errorf("telemetry: span %d (%s) [%d,%d] escapes parent %d (%s) [%d,%d]",
				r.ID, r.Name, r.StartNS, r.End(), p.ID, p.Name, p.StartNS, p.End())
		}
	}
	return nil
}
