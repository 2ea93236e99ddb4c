package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a p99
// over 500 samples rests on 5 values and moves with every outlier, so it is
// not reported as if it were stable.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest value with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailSupported reports whether the nearest-rank p-th percentile of n
// samples has at least minTail samples strictly beyond its rank.
func tailSupported(n int, p float64) bool {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n-rank >= minTail
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), so spreads here match spreads computed there.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// median of values (not necessarily sorted).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sorted returns an ascending copy.
func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
