package main

import (
	"math"
	"sort"
)

// Summary statistics over raw samples. Percentiles use the nearest-rank
// rule on the sorted samples, so a reported percentile is always a value
// that was actually measured.

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule; NaN for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailLevels are the candidate tail percentiles, highest first.
var tailLevels = []float64{99.9, 99, 90, 50}

// tailPercentile picks the highest of tailLevels that still has at least
// ten samples beyond it, so the tail a report quotes is never one or two
// outliers. With fewer than twenty samples it falls back to the median.
func tailPercentile(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// median returns the median of unsorted samples (the mean of the middle
// pair for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles with the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4), which is
// how run-to-run spread is judged. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	at := func(i int) float64 {
		// statistics.quantiles, method "exclusive", n=4: the rank
		// i*(len+1)/4 clamped to [1, len-1], interpolated (and, at the
		// clamped edges, extrapolated) in exact integer steps.
		const n = 4
		m := len(s) + 1
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
