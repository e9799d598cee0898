package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100)
// and how many samples lie strictly beyond that rank.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	// The tolerance keeps float error from bumping an exact rank (99.9% of
	// 10000 is 9990, not 9991).
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// tailLadder is the set of percentiles a tail latency is reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer make the tail a statement about a handful of requests.
const minBeyond = 10

// tailPercentile picks the highest percentile of tailLadder that has at
// least minBeyond samples beyond it. ok is false when even the median has
// fewer.
func tailPercentile(xs []float64) (p, value float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		v, b := percentile(xs, p)
		if b >= minBeyond {
			return p, v, b, true
		}
	}
	return 0, 0, 0, false
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
