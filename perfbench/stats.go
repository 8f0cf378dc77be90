package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a workload's tail may use, highest
// first; p99 is the cap.
var tailLadder = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a percentile for it to
// count as a measured tail rather than a near-maximum.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// nearestRank is the 1-based nearest-rank index of the p-th percentile of n
// samples.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples above the p-th percentile of n samples.
func beyond(n int, p float64) int { return n - nearestRank(n, p) }

// tailPercentile is the highest ladder percentile with at least
// minBeyond samples above it out of n, or the median when none has.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
