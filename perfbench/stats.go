package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or NaN for an empty sample. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's spread check is defined by. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 {
		// Position i*(n+1)/4 in 1-based order statistics; like Python, the
		// bracketing pair is clamped to the sample and the weight is not,
		// so tiny samples extrapolate.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailStat is the highest percentile of a sample that still has at least
// ten samples beyond it: with the sample sorted ascending, the value at
// index n-11. Pct is the percentile the value sits at (0-100) and Beyond
// the count of samples after it. Fewer than 21 samples support no such
// percentile at or above the median, so tail then reports the median with
// Supported false.
type tailStat struct {
	Value     float64
	Pct       float64
	Beyond    int
	N         int
	Supported bool
}

const tailBeyond = 10

func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{Value: math.NaN()}
	}
	s := sorted(xs)
	k := n - 1 - tailBeyond
	if k < n/2 {
		return tailStat{Value: median(xs), Pct: 50, Beyond: n / 2, N: n}
	}
	return tailStat{
		Value:     s[k],
		Pct:       100 * float64(k) / float64(n-1),
		Beyond:    n - 1 - k,
		N:         n,
		Supported: true,
	}
}

func sorted(xs []float64) []float64 {
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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}
