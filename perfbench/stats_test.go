package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {1, 10}, {0.01, 1},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

// The tail is reported at the highest percentile that leaves at least
// ten samples beyond it.
func TestSupportedTailTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999},
		{9999, 0.99}, // p99.9 would leave 9 beyond
		{1000, 0.99},
		{999, 0.95},
		{200, 0.95},
		{100, 0.9},
		{99, 0.75},
		{40, 0.75},
		{20, 0.5},
		{19, 0},
		{0, 0},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := supportedTail(c.n); q > 0 && beyond(c.n, q) < 10 {
			t.Errorf("supportedTail(%d) = %v leaves %d beyond", c.n, q, beyond(c.n, q))
		}
	}
}
