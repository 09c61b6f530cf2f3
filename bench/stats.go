package main

import (
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by the
// nearest-rank rule: the smallest sample with at least p % of the samples
// at or below it, so 0 gives the minimum and 100 the maximum. xs is not modified; an empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(float64(len(s))*p/100 + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and the third quartile as Python's
// statistics.quantiles(xs, n=4) gives them: the i-th cut point lies at
// position i(n+1)/4 among the sorted samples, interpolated linearly. Fewer
// than two samples give 0, 0.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// roundMedian takes the p-th percentile inside each round and returns the
// median of them over the rounds, so that a slow spell shorter than half
// the run does not move the result. Rounds without samples are skipped.
func roundMedian(rounds [][]float64, p float64) float64 {
	var per []float64
	for _, r := range rounds {
		if len(r) > 0 {
			per = append(per, percentile(r, p))
		}
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
