package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before
// it is a measurement and not an anecdote (choosing-metrics §1).
const minBeyond = 10

// percentile returns the p-th percentile (nearest rank) of xs and
// whether at least minBeyond samples lie strictly beyond that rank —
// so p90 needs n >= 100 and no n < 20 ever backs one. xs is sorted
// in place.
func percentile(xs []float64, p float64) (v float64, backed bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(float64(n)*p/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return xs[rank], n-1-rank >= minBeyond
}

// median returns the middle value of xs (mean of the middle two for
// even n). xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
