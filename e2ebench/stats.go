package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns the values in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p% of the samples at or below it.
// It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// samplesBeyond is how many of n samples lie above the nearest-rank p-th
// percentile. A tail percentile is only reported when this is at least
// minTailSamples.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return n - rank
}

// minTailSamples is the least number of samples a reported tail percentile
// must have beyond it.
const minTailSamples = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
