package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported. A tail figure resting on fewer samples is set by a handful of
// operations and does not repeat from run to run.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the q-quantile (0 < q < 1) of ascending samples by
// the nearest-rank rule, and whether at least minBeyond samples lie
// above that rank. A percentile without that support is not reported.
func percentile(asc []float64, q float64) (float64, bool) {
	n := len(asc)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return asc[rank-1], true
}

// median returns the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	asc := sorted(xs)
	n := len(asc)
	if n%2 == 1 {
		return asc[n/2]
	}
	return (asc[n/2-1] + asc[n/2]) / 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
