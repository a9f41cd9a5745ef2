package fleet

import (
	"math"
	"sort"
)

// DefaultMaxBins is the centroid budget of a StreamDist. Five
// distributions at this budget cost a few tens of kilobytes — constant in
// fleet size.
const DefaultMaxBins = 256

// StreamDist summarizes an unbounded sample stream in bounded memory
// with exact count, min, max and mean (the mean is summed in insertion
// order, which the engine keeps equal to wearer-index order) and percentile estimates from a streaming
// histogram in the style of Ben-Haim & Tom-Tov (JMLR 2010).
//
// The histogram keeps at most maxBins weighted centroids. A new value
// lands on its exact centroid if one exists, otherwise it opens a new
// centroid and, over budget, the two closest-together adjacent centroids
// merge (ties break on the lower index). Every step is a pure function of
// the insertion sequence, so fleet runs stay byte-reproducible across
// worker counts. While fewer than maxBins distinct values have been seen
// no merge ever happens and Quantile reproduces Dist's sorted-sample
// convention (index ⌊n·p/100⌋) exactly; beyond that, a percentile is the
// centroid covering the target rank, with error bounded by the local
// centroid spacing.
//
// NaN samples are counted separately and excluded from every statistic
// (see Add): series gaps surface as NaN and must not poison the sum/mean
// or break the sorted-centroid invariant sort.Search relies on.
type StreamDist struct {
	n        int64
	nans     int64
	sum      float64
	min, max float64
	bins     []centroid
	maxBins  int
}

// centroid is a weighted cluster of nearby samples.
type centroid struct {
	c float64 // weighted center
	w int64   // samples absorbed
}

// NewStreamDist returns an accumulator keeping at most maxBins centroids
// (0 means DefaultMaxBins).
func NewStreamDist(maxBins int) *StreamDist {
	if maxBins <= 0 {
		maxBins = DefaultMaxBins
	}
	return &StreamDist{maxBins: maxBins, bins: make([]centroid, 0, maxBins+1)}
}

// Add absorbs one sample. NaN is a gap marker, not a value: it bumps
// NaNs() and leaves n, sum, min/max and the centroids untouched. (A NaN
// admitted here would make the mean NaN forever and, because every
// comparison against NaN is false, land at an arbitrary sort.Search
// index — silently breaking the sorted-centroid invariant.)
func (d *StreamDist) Add(x float64) {
	if math.IsNaN(x) {
		d.nans++
		return
	}
	if d.n == 0 || x < d.min {
		d.min = x
	}
	if d.n == 0 || x > d.max {
		d.max = x
	}
	d.n++
	d.sum += x

	i := sort.Search(len(d.bins), func(i int) bool { return d.bins[i].c >= x })
	if i < len(d.bins) && d.bins[i].c == x {
		d.bins[i].w++
		return
	}
	d.bins = append(d.bins, centroid{})
	copy(d.bins[i+1:], d.bins[i:])
	d.bins[i] = centroid{c: x, w: 1}
	if len(d.bins) <= d.maxBins {
		return
	}
	// Merge the closest adjacent pair; ties break on the lower index so
	// the result depends only on the insertion sequence.
	best, bestGap := 0, d.bins[1].c-d.bins[0].c
	for j := 1; j < len(d.bins)-1; j++ {
		if gap := d.bins[j+1].c - d.bins[j].c; gap < bestGap {
			best, bestGap = j, gap
		}
	}
	a, b := d.bins[best], d.bins[best+1]
	w := a.w + b.w
	d.bins[best] = centroid{c: (a.c*float64(a.w) + b.c*float64(b.w)) / float64(w), w: w}
	d.bins = append(d.bins[:best+1], d.bins[best+2:]...)
}

// N reports the samples absorbed so far (NaN gaps excluded).
func (d *StreamDist) N() int64 { return d.n }

// NaNs reports how many NaN samples were offered and skipped.
func (d *StreamDist) NaNs() int64 { return d.nans }

// Quantile returns the estimated pct-th percentile under Dist's
// convention: the value at rank ⌊n·pct/100⌋ of the sorted sample,
// answered with the centroid whose weight span covers that rank.
func (d *StreamDist) Quantile(pct int) float64 {
	if d.n == 0 {
		return 0
	}
	rank := d.n * int64(pct) / 100
	var cum int64
	for _, b := range d.bins {
		cum += b.w
		if rank < cum {
			return b.c
		}
	}
	return d.bins[len(d.bins)-1].c
}

// Dist renders the accumulated stream as the Report's summary type.
func (d *StreamDist) Dist() Dist {
	if d.n == 0 {
		return Dist{}
	}
	return Dist{
		N:    int(d.n),
		Min:  d.min,
		Max:  d.max,
		Mean: d.sum / float64(d.n),
		P10:  d.Quantile(10),
		P50:  d.Quantile(50),
		P90:  d.Quantile(90),
		P99:  d.Quantile(99),
	}
}
