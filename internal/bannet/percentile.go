package bannet

import (
	"math/bits"
	"slices"

	"wiban/internal/units"
)

// p50p99 returns the elements at indices n/2 and n*99/100 of a sorted
// copy of a (n = len(a) > 0), the latency percentiles a Report carries.
// It reorders a in place but does not sort it: only two order statistics
// are read, so a selection does in O(n) what a sort does in O(n log n).
//
// The result is the one slices.Sort(a) would index. The k-th order
// statistic of a multiset is unique, so any algorithm that places the
// element of rank k at index k picks the same value. selectNth ranks
// elements the way cmp.Less does, the order slices.Sort uses, so a NaN
// lands where the sort would put it. (Elements that compare equal but
// differ in bits, ±0 or NaN payloads, may trade places under either
// algorithm; latencies are non-negative differences of integer clock
// ticks, so neither arises.) The P99 selection runs on the upper part
// left by the P50 one, since every element there ranks at or above
// a[n/2].
func p50p99(a []units.Duration) (p50, p99 units.Duration) {
	i50, i99 := len(a)/2, len(a)*99/100
	selectNth(a, i50)
	selectNth(a[i50:], i99-i50)
	return a[i50], a[i99]
}

// selectNth reorders a so that a[k] holds the element of rank k under
// cmp.Less, with no element of a[:k] ranking above it and none of
// a[k+1:] below it.
//
// cmp.Less ranks NaNs below every number, so one pass first gathers the
// NaNs at the front; the rest compares with plain <. That is Wirth's
// quickselect with a median-of-three pivot: its partition stops on
// elements equal to the pivot, so runs of duplicates still split evenly.
// Ranges of up to 16 elements are sorted outright, and so is a range
// that has not shrunk to that after 2·log2(n) partitions, which bounds
// the worst case at the sort's O(n log n).
func selectNth(a []units.Duration, k int) {
	nans := 0
	for i, x := range a {
		if x != x {
			a[nans], a[i] = a[i], a[nans]
			nans++
		}
	}
	if k < nans {
		return
	}
	a, k = a[nans:], k-nans
	lo, hi := 0, len(a)-1
	for budget := 2 * bits.Len(uint(len(a))); hi-lo >= 16 && budget > 0; budget-- {
		p := medianOf3(a[lo], a[lo+(hi-lo)/2], a[hi])
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for p < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo:j+1] ≤ p ≤ a[i:hi+1], and anything between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
	slices.Sort(a[lo : hi+1])
}

// medianOf3 returns the middle value of x, y and z (none NaN).
func medianOf3(x, y, z units.Duration) units.Duration {
	if y < x {
		x, y = y, x
	}
	if z < y {
		y = max(x, z)
	}
	return y
}
