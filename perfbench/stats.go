package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks, the convention of Python's
// statistics.quantiles(method="inclusive") and NumPy's default. xs need
// not be sorted; it is not modified. An empty xs yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailCandidates are the percentiles a latency report considers, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer, and the figure is one or two outliers, not a tail.
const minBeyond = 10

// beyond is how many of n samples lie strictly above the pct-th
// percentile: the floor of n·(1 − pct/100).
func beyond(n int, pct float64) int {
	return int(math.Floor(float64(n)*(100-pct)/100 + 1e-9))
}

// tailPercentile picks the highest candidate percentile with at least
// minBeyond of n samples beyond it; ok is false when even the lowest
// candidate has too few.
func tailPercentile(n int) (pct float64, ok bool) {
	for _, p := range tailCandidates {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentileReportable reports whether pct may be quoted for n samples.
func percentileReportable(n int, pct float64) bool { return beyond(n, pct) >= minBeyond }
