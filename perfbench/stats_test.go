package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7, 7, 7, 7, 7, 7}, 7},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of an empty sample must be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25}, // Python extrapolates below two points
		{[]float64{2.1, 2.3, 2.2, 2.5, 2.4, 2.28, 2.31, 2.45, 2.29, 2.36}, 2.26, 2.4125},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tail must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{21, 22, 50, 100, 1000} {
		ts := tail(seq(n))
		if !ts.Supported || ts.Beyond != tailBeyond || ts.N != n {
			t.Fatalf("n=%d: %+v, want supported with %d beyond", n, ts, tailBeyond)
		}
		// Values are 1..n, so exactly ten exceed the tail value.
		if want := float64(n - tailBeyond); ts.Value != want {
			t.Errorf("n=%d: tail value %v, want %v", n, ts.Value, want)
		}
	}
	ts := tail(seq(100))
	if !near(ts.Pct, 100*89.0/99) {
		t.Errorf("n=100: percentile %v, want %v", ts.Pct, 100*89.0/99)
	}
}

func TestTailSmallSampleFallsBackToMedian(t *testing.T) {
	for _, n := range []int{1, 2, 10, 11, 20} {
		xs := seq(n)
		ts := tail(xs)
		if ts.Supported {
			t.Errorf("n=%d: %d samples cannot keep ten beyond a percentile above the median", n, n)
		}
		if ts.Value != median(xs) || ts.Pct != 50 {
			t.Errorf("n=%d: got %+v, want the median", n, ts)
		}
	}
	if !math.IsNaN(tail(nil).Value) {
		t.Error("tail of an empty sample must be NaN")
	}
}
