package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least a fraction q of the samples at or below
// it. It returns NaN for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// rank is the 1-based nearest rank of quantile q among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly above the nearest-rank q-quantile
// position of n samples.
func beyond(n int, q float64) int { return n - rank(n, q) }

// tailLevels are the percentiles a timing's tail is reported at, highest
// first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// supportedTail returns the highest percentile in tailLevels that leaves
// at least ten samples beyond it among n samples, or 0 when even the
// median does not.
func supportedTail(n int) float64 {
	for _, q := range tailLevels {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 0
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
