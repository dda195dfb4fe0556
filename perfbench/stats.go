package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is a set of raw durations in microseconds. Percentiles are
// nearest-rank on the raw values: no buckets, no interpolation.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e3) }

// nearestRank returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest value such that at least p% of the values
// are at or below it, i.e. the ceil(p/100 · n)-th smallest. xs need not be
// sorted; it is not modified. An empty set has no percentile and returns 0.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the zero-based index of the nearest-rank p-th percentile in a
// sorted set of n values.
func rankIndex(n int, p float64) int {
	// The epsilon keeps p·n/100 that is an integer in exact arithmetic
	// (99.9% of 10000) from rounding up past it in floating point.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// beyond is how many of n sorted samples lie strictly above the nearest-rank
// p-th percentile's position.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// tailPercentile picks the highest of the usual tail percentiles that still
// has at least ten samples beyond it, so a reported tail is never the
// maximum of a handful of values. It returns 50 when even p90 is too thin.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// dist summarizes one latency sample set for the detailed report.
type dist struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_us"`
	P99     float64 `json:"p99_us"`
	Beyond  int     `json:"beyond_p99"`
	TailP   float64 `json:"tail_p"`
	TailUS  float64 `json:"tail_us"`
	MaxUS   float64 `json:"max_us"`
	MeanUS  float64 `json:"mean_us"`
	Comment string  `json:"comment,omitempty"`
}

func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	tp := tailPercentile(len(s))
	d := dist{
		N:      len(s),
		P50:    s[rankIndex(len(s), 50)],
		P99:    s[rankIndex(len(s), 99)],
		Beyond: beyond(len(s), 99),
		TailP:  tp,
		TailUS: s[rankIndex(len(s), tp)],
		MaxUS:  s[len(s)-1],
		MeanUS: sum / float64(len(s)),
	}
	if d.Beyond < 10 {
		d.Comment = fmt.Sprintf("p99 has only %d samples beyond it; p%g is the highest percentile with ten", d.Beyond, tp)
	}
	return d
}

// median returns the nearest-rank median of xs.
func median(xs []float64) float64 { return nearestRank(xs, 50) }
