package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTracerIsFreeAndSafe: the disabled path must tolerate every
// operation on nil receivers — this is the zero-overhead contract the
// pipeline instrumentation relies on.
func TestNilTracerIsFreeAndSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(0, "x", String("k", "v"))
	if sp != nil {
		t.Fatalf("nil tracer returned a non-nil span")
	}
	sp.SetAttr("a", 1)
	sp.End()
	if sp.ID() != 0 {
		t.Fatalf("nil span ID = %d, want 0", sp.ID())
	}
	if tr.Len() != 0 || tr.Records() != nil {
		t.Fatalf("nil tracer holds records")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteJSONL: %v", err)
	}

	var m *Metrics
	m.Add("c", 1)
	m.Observe("h", time.Second)
	m.Merge(NewMetrics())
	NewMetrics().Merge(m)
	if m.Counter("c") != 0 || m.Hist("h").Count != 0 {
		t.Fatalf("nil metrics recorded something")
	}
}

// TestSpanNestingRoundTrip: spans written as JSONL parse back identically
// and pass Lint.
func TestSpanNestingRoundTrip(t *testing.T) {
	tr := NewTracer()
	root := tr.Start(0, "root", String("fn", "f1"))
	child := tr.Start(root.ID(), "child")
	grand := tr.Start(child.ID(), "grand", Int("n", 3), Bool("ok", true))
	grand.End()
	child.SetAttr("result", "unsat")
	child.End()
	root.End()

	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if err := Lint(recs); err != nil {
		t.Fatalf("Lint: %v", err)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("parsed %d records, want 3", len(back))
	}
	if err := Lint(back); err != nil {
		t.Fatalf("Lint after round trip: %v", err)
	}
	// End order is children first; the root arrives last.
	if back[2].Name != "root" || back[0].Name != "grand" {
		t.Fatalf("unexpected record order: %s, %s, %s", back[0].Name, back[1].Name, back[2].Name)
	}
	if back[1].Attrs["result"] != "unsat" {
		t.Fatalf("child attrs lost: %v", back[1].Attrs)
	}
}

// TestLintRejections: broken traces are caught.
func TestLintRejections(t *testing.T) {
	cases := []struct {
		name string
		recs []Record
		want string
	}{
		{"missing parent", []Record{{ID: 2, Parent: 1, Name: "x", StartNS: 0, DurNS: 5}}, "missing parent"},
		{"duplicate id", []Record{{ID: 1, Name: "a"}, {ID: 1, Name: "b"}}, "duplicate"},
		{"zero id", []Record{{ID: 0, Name: "a"}}, "id 0"},
		{"escapes parent", []Record{
			{ID: 1, Name: "p", StartNS: 100, DurNS: 50},
			{ID: 2, Parent: 1, Name: "c", StartNS: 120, DurNS: 100},
		}, "escapes"},
	}
	for _, c := range cases {
		err := Lint(c.recs)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Lint = %v, want error containing %q", c.name, err, c.want)
		}
	}
	ok := []Record{
		{ID: 1, Name: "p", StartNS: 100, DurNS: 50},
		{ID: 2, Parent: 1, Name: "c", StartNS: 120, DurNS: 20},
	}
	if err := Lint(ok); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

// TestTracerConcurrent exercises the tracer from many goroutines under
// the race detector: concurrent Start/End with parent/child edges across
// goroutines, read by Records while they publish, must be safe and lose
// nothing.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	const workers, per = 8, 200
	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		for last := 0; ; {
			select {
			case <-stop:
				return
			default:
			}
			if n := len(tr.Records()); n < last {
				t.Errorf("Records shrank from %d to %d", last, n)
			} else {
				last = n
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				root := tr.Start(0, "worker")
				child := tr.Start(root.ID(), "task", Int("i", int64(i)))
				child.End()
				root.End()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-read
	recs := tr.Records()
	if len(recs) != workers*per*2 {
		t.Fatalf("got %d records, want %d", len(recs), workers*per*2)
	}
	if err := Lint(recs); err != nil {
		t.Fatalf("Lint: %v", err)
	}
}

// TestHistogramMergeProperty: merging shards must equal the single-shard
// histogram, for any split — the property the harness's per-worker
// registries rely on.
func TestHistogramMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	single := &Histogram{}
	shards := [4]*Histogram{{}, {}, {}, {}}
	for i := 0; i < 10_000; i++ {
		// Span seven orders of magnitude, like real query latencies.
		d := time.Duration(rng.Int63n(int64(10 * time.Second)))
		single.Observe(d)
		shards[rng.Intn(4)].Observe(d)
	}
	merged := &Histogram{}
	for _, s := range shards {
		merged.Merge(s)
	}
	if !reflect.DeepEqual(single, merged) {
		t.Fatalf("merged shards != single histogram:\nsingle %+v\nmerged %+v", single, merged)
	}
}

// TestMetricsMergeProperty: the same property at the registry level,
// counters and histograms together.
func TestMetricsMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	single := NewMetrics()
	shards := [3]*Metrics{NewMetrics(), NewMetrics(), NewMetrics()}
	names := []string{"phase.isel", "phase.check", "smt.query"}
	for i := 0; i < 5000; i++ {
		name := names[rng.Intn(len(names))]
		d := time.Duration(rng.Int63n(int64(time.Second)))
		single.Observe(name, d)
		single.Add("n."+name, 1)
		s := shards[rng.Intn(3)]
		s.Observe(name, d)
		s.Add("n."+name, 1)
	}
	merged := NewMetrics()
	for _, s := range shards {
		merged.Merge(s)
	}
	for _, name := range names {
		sh, mh := single.Hist(name), merged.Hist(name)
		if !reflect.DeepEqual(sh, mh) {
			t.Errorf("%s: merged hist differs:\nsingle %+v\nmerged %+v", name, sh, mh)
		}
		if single.Counter("n."+name) != merged.Counter("n."+name) {
			t.Errorf("%s: counter differs: %d vs %d", name,
				single.Counter("n."+name), merged.Counter("n."+name))
		}
	}
}

// TestHistogramStats sanity-checks mean/quantile/bucket edges.
func TestHistogramStats(t *testing.T) {
	h := &Histogram{}
	for _, ms := range []int64{1, 2, 4, 8, 1000} {
		h.Observe(time.Duration(ms) * time.Millisecond)
	}
	if h.Count != 5 {
		t.Fatalf("count = %d", h.Count)
	}
	if got, want := h.Mean(), 203*time.Millisecond; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	if h.Min != int64(time.Millisecond) || h.Max != int64(time.Second) {
		t.Errorf("min/max = %d/%d", h.Min, h.Max)
	}
	// The median observation is 4ms; the bucket upper edge is within 2x.
	med := h.Quantile(0.5)
	if med < 4*time.Millisecond || med > 8*time.Millisecond {
		t.Errorf("p50 = %v, want within [4ms, 8ms]", med)
	}
	if q := h.Quantile(1.0); q != time.Second {
		t.Errorf("p100 = %v, want 1s", q)
	}
	bs := h.Buckets()
	if len(bs) == 0 {
		t.Fatal("no buckets")
	}
	var n int64
	for _, b := range bs {
		if b.Lo >= b.Hi {
			t.Errorf("bucket [%v,%v) inverted", b.Lo, b.Hi)
		}
		n += b.Count
	}
	if n != h.Count {
		t.Errorf("bucket counts sum to %d, want %d", n, h.Count)
	}
	var empty Histogram
	if empty.Buckets() != nil || empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram not inert")
	}
}

// TestHistogramJSONRoundTrip: the wire encoding is exact. For seeded
// random histograms, decode(encode(h)) equals h — Count/Sum/Min/Max,
// buckets, and therefore quantiles — and merging decoded shards encodes
// byte-identically to encoding the merged originals: the property that
// makes chunked remote runs report the whole batch's quantiles.
func TestHistogramJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	decode := func(t *testing.T, h Histogram) Histogram {
		t.Helper()
		b, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		var out Histogram
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("decode %s: %v", b, err)
		}
		return out
	}
	for trial := 0; trial < 50; trial++ {
		var shards [3]Histogram
		whole := Histogram{}
		for i, n := 0, rng.Intn(500); i < n; i++ {
			// Up to 2^62 ns, so the top buckets are exercised too.
			v := time.Duration(rng.Int63n(1 << uint(1+rng.Intn(62))))
			shards[rng.Intn(len(shards))].Observe(v)
			whole.Observe(v)
		}
		var merged Histogram
		for _, sh := range shards {
			got := decode(t, sh)
			if !reflect.DeepEqual(got, sh) {
				t.Fatalf("trial %d: round trip changed the histogram:\nin  %+v\nout %+v", trial, sh, got)
			}
			for _, p := range []float64{0.5, 0.9, 0.99, 1} {
				if got.Quantile(p) != sh.Quantile(p) {
					t.Fatalf("trial %d: p%v %v after round trip, want %v", trial, p, got.Quantile(p), sh.Quantile(p))
				}
			}
			merged.Merge(&got)
		}
		a, _ := json.Marshal(merged)
		b, _ := json.Marshal(whole)
		if !bytes.Equal(a, b) {
			t.Fatalf("trial %d: merged decoded shards encode differently:\n%s\n%s", trial, a, b)
		}
	}
	for _, bad := range []string{
		`{"count":1,"buckets":[[64,1]]}`,
		`{"count":2,"buckets":[[3,1]]}`,
	} {
		var h Histogram
		if err := json.Unmarshal([]byte(bad), &h); err == nil {
			t.Errorf("decoded malformed histogram %s", bad)
		}
	}
}
