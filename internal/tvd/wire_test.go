package tvd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/telemetry"
	"repro/internal/tv"
)

// fullResult is a BatchResult with every field populated: an artifact
// holding all 256 byte values, an Err row, a ProofErr row, a trace
// whose records carry attrs, and stats with histograms.
func fullResult() *BatchResult {
	every := make([]byte, 256)
	for i := range every {
		every[i] = byte(i)
	}
	m := telemetry.NewMetrics()
	m.Observe("smt.query", 3*time.Millisecond)
	m.Observe("smt.query", 40*time.Millisecond)
	m.ObserveVal("mem.check", 1<<20)
	m.Add("store.hit", 1)
	m.Add("smt.queries", 7)
	rows := []RowJSON{
		{Index: 0, Fn: "f0", Class: tv.ClassSucceeded.String(), CodeSize: 12, Certified: true,
			Cached: true, Key: "00ff", SubmittedNS: 10, StartedNS: 10, FinishedNS: 10,
			Artifacts: []ArtifactJSON{{Name: "f0.certs", Data: every}, {Name: "f0.drat", Data: []byte{0}}}},
		{Index: 1, Fn: "f1", Class: tv.ClassTimeout.String(), Err: "budget: timeout after 2s \"quoted\"\n",
			CodeSize: 40, Key: "01fe", SubmittedNS: 11, StartedNS: 20, FinishedNS: 2_000_000_020,
			DurationNS: 2_000_000_000},
		{Index: 2, Fn: "f2", Class: tv.ClassSucceeded.String(), CodeSize: 9,
			ProofErr: "proof: write f2.drat: no space left on device", Key: "02fd",
			SubmittedNS: 12, StartedNS: 30, FinishedNS: 900, DurationNS: 870},
	}
	sum := &harness.Summary{Total: len(rows), Workers: 2, WallTime: 2100 * time.Millisecond,
		CPUTime: 2 * time.Second, Metrics: m, Certified: 1, CertFailed: 1}
	for _, r := range rows {
		c, _ := tv.ParseClass(r.Class)
		sum.Rows = append(sum.Rows, harness.ResultRow{Fn: r.Fn, Class: c, CodeSize: r.CodeSize,
			Duration: time.Duration(r.DurationNS), Certified: r.Certified})
	}
	return &BatchResult{
		Rows:        rows,
		Stats:       sum.StatsJSON(),
		StoreHits:   1,
		StoreMisses: 2,
		Trace: []telemetry.Record{
			{ID: 1, Name: "tv.validate", StartNS: 20, DurNS: 1000,
				Attrs: map[string]any{"fn": "f1", "points": 3.0, "fast": true}},
			{ID: 2, Parent: 1, Name: "smt.query", StartNS: 25, DurNS: 500,
				Attrs: map[string]any{"result": "unsat", "cache_hit": false}},
		},
	}
}

// encodeStream writes result's rows and summary as the server does.
func encodeStream(t *testing.T, result *BatchResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range result.Rows {
		if err := writeRow(enc, &result.Rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeSummary(enc, len(result.Rows), 5*time.Millisecond, result); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWireRoundTrip: a fully populated BatchResult written by the
// server's record writers decodes back deep-equal, and onRow receives
// exactly the telemetry.Record a generic decode of each row line gives
// (fn string, index float64, class string, cached bool).
func TestWireRoundTrip(t *testing.T) {
	want := fullResult()
	stream := encodeStream(t, want)

	var rows []telemetry.Record
	got, err := readStream(bytes.NewReader(stream), func(rec telemetry.Record) { rows = append(rows, rec) })
	if err != nil {
		t.Fatalf("readStream: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		t.Fatalf("round trip differs:\n got %s\nwant %s", g, w)
	}

	lines := bytes.Split(bytes.TrimSpace(stream), []byte("\n"))
	if len(lines) != len(want.Rows)+1 || len(rows) != len(want.Rows) {
		t.Fatalf("%d lines and %d onRow calls for %d rows", len(lines), len(rows), len(want.Rows))
	}
	for i, rec := range rows {
		var generic telemetry.Record
		if err := json.Unmarshal(lines[i], &generic); err != nil {
			t.Fatalf("row line %d: %v", i, err)
		}
		if !reflect.DeepEqual(rec, generic) {
			t.Errorf("onRow record %d = %#v, generic decode %#v", i, rec, generic)
		}
		row := want.Rows[i]
		wantAttrs := map[string]any{"fn": row.Fn, "index": float64(row.Index), "class": row.Class, "cached": row.Cached}
		if !reflect.DeepEqual(rec.Attrs, wantAttrs) {
			t.Errorf("onRow attrs %d = %#v, want %#v", i, rec.Attrs, wantAttrs)
		}
		if rec.Name != RecordRow || rec.ID != telemetry.SpanID(row.Index+1) ||
			rec.StartNS != row.StartedNS || rec.DurNS != row.FinishedNS-row.StartedNS {
			t.Errorf("onRow record %d header %+v", i, rec)
		}
	}
}

// cannedClient serves body as a 200 response stream.
func cannedClient(t *testing.T, body []byte) *Client {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		w.Write(body)
	}))
	t.Cleanup(hs.Close)
	return NewClient(hs.URL)
}

// TestStreamRobustness: the client returns an error, never a partial
// result, on a cut or summary-less stream; skips records it does not
// know; and every line a real daemon writes parses as a
// telemetry.Record.
func TestStreamRobustness(t *testing.T) {
	full := encodeStream(t, fullResult())
	summaryAt := bytes.Index(full, []byte(`"name":"tvd.summary"`))
	rowsOnly := full[:bytes.LastIndexByte(full[:summaryAt], '\n')+1]
	req := &BatchRequest{Jobs: []JobRequest{{Fn: "f0", IR: "x"}}}

	for _, tc := range []struct {
		name, body, wantErr string
	}{
		{"cut inside summary", string(full[:summaryAt+len(full[summaryAt:])/2]), "bad stream record"},
		{"cut before summary newline", string(full[:len(full)-2]), "bad stream record"},
		{"no summary", string(rowsOnly), "without a summary"},
		{"empty stream", "", "without a summary"},
		{"summary without result", string(rowsOnly) +
			`{"id":4,"name":"tvd.summary","start_ns":0,"dur_ns":0,"attrs":{}}` + "\n", "without result"},
		{"string-wrapped summary", string(rowsOnly) +
			`{"id":4,"name":"tvd.summary","start_ns":0,"dur_ns":0,"attrs":{"result_json":"{\"rows\":[]}"}}` + "\n",
			"without result"},
		{"summary result not an object", string(rowsOnly) +
			`{"id":4,"name":"tvd.summary","start_ns":0,"dur_ns":0,"attrs":{"result":"{}"}}` + "\n",
			"bad stream record"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := cannedClient(t, []byte(tc.body)).Validate(req, nil)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
			}
			if res != nil {
				t.Fatalf("partial result returned beside error %v", err)
			}
		})
	}

	t.Run("unknown records skipped", func(t *testing.T) {
		unknown := `{"id":90,"name":"tvd.heartbeat","start_ns":1,"dur_ns":0}` + "\n" +
			`{"id":91,"name":"tvd.debug","start_ns":2,"dur_ns":0,"attrs":{"index":"seven","cached":3,"note":[1,2]}}` + "\n"
		body := append([]byte(unknown), rowsOnly...)
		body = append(body, unknown...)
		body = append(body, full[len(rowsOnly):]...)
		var names []string
		res, err := cannedClient(t, body).Validate(req, func(rec telemetry.Record) { names = append(names, rec.Name) })
		if err != nil {
			t.Fatalf("Validate: %v", err)
		}
		if !reflect.DeepEqual(res, fullResult()) {
			t.Errorf("result differs after skipping unknown records")
		}
		if len(names) != 3 || names[0] != RecordRow || names[2] != RecordRow {
			t.Errorf("onRow saw %v, want three %s records", names, RecordRow)
		}
	})

	t.Run("daemon lines are telemetry records", func(t *testing.T) {
		s, hs := newTestServer(t, ServerConfig{Workers: 1, StoreDir: t.TempDir(), WorkDir: t.TempDir()})
		defer s.Close()
		batch := testBatch(testCorpus(1))
		batch.Trace = true
		body, _ := json.Marshal(batch)
		for pass := 0; pass < 2; pass++ { // a miss, then a store hit
			resp, err := http.Post(hs.URL+PathValidate, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			var raw bytes.Buffer
			raw.ReadFrom(resp.Body)
			resp.Body.Close()
			lines := strings.Split(strings.TrimSuffix(raw.String(), "\n"), "\n")
			if len(lines) != 2 {
				t.Fatalf("pass %d: %d lines, want a row and a summary", pass, len(lines))
			}
			for i, line := range lines {
				var rec telemetry.Record
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("pass %d line %d is not a telemetry.Record: %v", pass, i, err)
				}
				wantName, wantKeys := RecordRow, []string{"cached", "class", "fn", "index"}
				if i == 1 {
					wantName, wantKeys = RecordSummary, []string{AttrResult}
				}
				var keys []string
				for k := range rec.Attrs {
					keys = append(keys, k)
				}
				if rec.Name != wantName || len(keys) != len(wantKeys) {
					t.Fatalf("pass %d line %d: %s with attrs %v, want %s with %v",
						pass, i, rec.Name, keys, wantName, wantKeys)
				}
				for _, k := range wantKeys {
					if _, ok := rec.Attrs[k]; !ok {
						t.Errorf("pass %d line %d: attr %q missing", pass, i, k)
					}
				}
				if i == 0 && rec.Attrs["cached"] != (pass == 1) {
					t.Errorf("pass %d: row cached = %v", pass, rec.Attrs["cached"])
				}
			}
		}
	})
}

// BenchmarkHitRequest times one all-hits request with Proofs on against
// an in-process daemon whose on-disk store holds the request's 15
// functions: store reads, row and summary encoding, the loopback HTTP
// stream, and the client's decode.
func BenchmarkHitRequest(b *testing.B) {
	s, err := NewServer(ServerConfig{Workers: 2, StoreDir: b.TempDir(), WorkDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer s.Close()
	defer hs.Close()
	req := testBatch(testCorpus(15))
	c := NewClient(hs.URL)
	if _, err := c.ValidateAll(req, nil); err != nil {
		b.Fatalf("filling the store: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Validate(req, func(telemetry.Record) {})
		if err != nil {
			b.Fatal(err)
		}
		if res.StoreHits != len(req.Jobs) {
			b.Fatalf("%d of %d jobs served from the store", res.StoreHits, len(req.Jobs))
		}
	}
}
