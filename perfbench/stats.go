package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/tv"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail read from fewer samples is one outlier, not a tail.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first. Fixed steps keep the reported percentile the same from run to
// run when the sample count moves a little.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// Quantile is one exact order statistic of a raw sample set.
type Quantile struct {
	P     float64 `json:"p"`     // percentile, 0..100
	N     int     `json:"n"`     // samples it was read from
	Value float64 `json:"value"` // the sample at nearest rank
}

// percentile returns the nearest-rank p-th percentile of xs (xs need not
// be sorted; it is not modified). It is exact: the value is one of the
// samples, never an interpolation or a histogram bucket edge.
func percentile(xs []float64, p float64) Quantile {
	q := Quantile{P: p, N: len(xs)}
	if len(xs) == 0 {
		return q
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	q.Value = s[rank-1]
	return q
}

// tail returns the highest ladder percentile that leaves at least
// minBeyond samples above its rank. With fewer than minBeyond+1 samples
// no percentile qualifies and the median is returned, flagged by its P.
func tail(xs []float64) Quantile {
	n := len(xs)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= minBeyond {
			return percentile(xs, p)
		}
	}
	return percentile(xs, 50)
}

// medianQuantile is the median of per-pass tails. The tail of each pass
// is read separately so its percentile depends on the pass size, which is
// fixed, and not on how many passes fit in the run.
func medianQuantile(qs []Quantile) Quantile {
	s := append([]Quantile(nil), qs...)
	sort.Slice(s, func(i, j int) bool { return s[i].Value < s[j].Value })
	return s[(len(s)-1)/2]
}

// median is the nearest-rank median.
func median(xs []float64) float64 { return percentile(xs, 50).Value }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// decided reports whether a class is a verdict: the validator either
// proved the translation (Succeeded) or refuted it (Not validated).
// Timeout, out-of-memory and every other class are undecided.
func decided(c tv.Class) bool {
	return c == tv.ClassSucceeded || c == tv.ClassNotValidated
}

// decidedFrac is the share of rows whose class is a verdict.
func decidedFrac(classes []tv.Class) float64 {
	if len(classes) == 0 {
		return 0
	}
	n := 0
	for _, c := range classes {
		if decided(c) {
			n++
		}
	}
	return float64(n) / float64(len(classes))
}
