package main

import (
	"testing"
	"time"

	"repro/internal/tv"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100) // 1..100
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}, {0.5, 1}} {
		if got := percentile(xs, c.p); got.Value != c.want || got.N != 100 {
			t.Errorf("percentile(1..100, %g) = %+v, want %g over 100", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got.Value != 0 || got.N != 0 {
		t.Errorf("percentile(nil) = %+v", got)
	}
	if xs[0] != 100 {
		t.Error("percentile modified its input")
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
	}{
		{11, 0}, // p50 rank 6 leaves 5: no ladder step qualifies
		{20, 50},
		{40, 75},
		{100, 90},
		{200, 95},
		{999, 95},
		{1000, 99},
		{20000, 99.9},
	} {
		q := tail(seq(c.n))
		want := c.wantP
		if want == 0 {
			want = 50
		}
		if q.P != want || q.N != c.n {
			t.Errorf("tail(n=%d) = %+v, want p%g", c.n, q, want)
			continue
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > q.Value {
				beyond++
			}
		}
		if c.wantP != 0 && beyond < minBeyond {
			t.Errorf("tail(n=%d) = p%g leaves %d samples beyond, want >= %d", c.n, q.P, beyond, minBeyond)
		}
	}
}

func TestDecidedFrac(t *testing.T) {
	classes := []tv.Class{
		tv.ClassSucceeded, tv.ClassSucceeded, tv.ClassNotValidated, tv.ClassTimeout,
		tv.ClassOOM, tv.ClassOther, tv.ClassUnsupported, tv.ClassSucceeded,
	}
	if got, want := decidedFrac(classes), 4.0/8; got != want {
		t.Errorf("decidedFrac = %g, want %g", got, want)
	}
	if got := decidedFrac(nil); got != 0 {
		t.Errorf("decidedFrac(nil) = %g, want 0", got)
	}
}

func TestNondeterministicNamesDifferingCounters(t *testing.T) {
	a := counters{Classes: "SS", Queries: 10, Conflicts: 5, CacheHits: 1}
	b := a
	if got := nondeterministic([]counters{a, b}); len(got) != 0 {
		t.Errorf("identical counters flagged: %v", got)
	}
	b.Conflicts, b.CacheHits = 6, 2
	got := nondeterministic([]counters{a, b, b})
	if len(got) != 2 || got[0] != "conflicts" || got[1] != "cache_hits" {
		t.Errorf("nondeterministic = %v, want [conflicts cache_hits]", got)
	}
}

func TestLapTailReadsWholeLapsOnly(t *testing.T) {
	// Laps of 20 requests per client: lap 0 is whole for every client,
	// lap 1 only for one, so lap 1's slow requests must not count.
	cs := &clientStats{lapLen: 20}
	for c := 0; c < tvdClients; c++ {
		for i := 0; i < 20; i++ {
			cs.latency = append(cs.latency, time.Duration(i+1)*time.Millisecond)
			cs.lap = append(cs.lap, 0)
		}
	}
	for i := 0; i < 20; i++ {
		cs.latency = append(cs.latency, time.Second)
		cs.lap = append(cs.lap, 1)
	}
	// 40 samples, 1..20 ms twice: p75 is the highest step with 10
	// beyond, and its rank-30 sample is 15 ms.
	if q := cs.lapTail(); q.P != 75 || q.N != 40 || q.Value != 15 {
		t.Errorf("lapTail = %+v, want p75 of 40 = 15", q)
	}
	// With no whole lap it is the tail over every request.
	cs.lap = cs.lap[:0]
	for i := range cs.latency {
		cs.lap = append(cs.lap, i)
	}
	if q := cs.lapTail(); q.N != 60 {
		t.Errorf("lapTail without whole laps read %d samples, want 60", q.N)
	}
}

func TestRateSumsClientLapMedians(t *testing.T) {
	cs := &clientStats{rows: 100, lapRates: []float64{10, 20}}
	if got := cs.rate(time.Second); got != 30 {
		t.Errorf("rate = %g, want 30 (sum of the clients' lap medians)", got)
	}
	// A client without a whole lap falls back to rows over wall time.
	cs.lapRates = cs.lapRates[:1]
	if got := cs.rate(2 * time.Second); got != 50 {
		t.Errorf("rate = %g, want 50 (100 rows in 2 s)", got)
	}
}
