package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile's rank; fewer and the percentile is noise, so it is refused.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (sorted
// ascending): the value at rank ceil(q·n). It refuses a quantile with
// fewer than minBeyond samples above that rank.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	rank := nearestRank(n, q)
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// nearestRank is the 1-based rank of the q-quantile of n samples.
func nearestRank(n int, q float64) int {
	return max(1, int(math.Ceil(q*float64(n))))
}

// sortedCopy returns the samples sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// medianDuration is median over durations, in seconds.
func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}
