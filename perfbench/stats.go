package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: a tail percentile resting on fewer samples is noise.
const minBeyond = 10

// percentile returns the p-th percentile (0..100) of ascending values, with
// linear interpolation between order statistics (metrics.Histogram's rule),
// or 0 for no values.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := p / 100 * float64(n-1)
	lo := int(idx)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// beyond returns how many of n samples rank above the p-th percentile: the
// samples past rank ceil(p/100 * n).
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)-1e-9))
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile with at least
// minBeyond samples beyond it among n samples, or 0 when none has.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// stepQuantile returns the q-quantile (0 < q < 1) of ascending latencies
// measured on a simulator with the given step. The engine reports every
// completion at the end of the step in which the work finished, so a latency
// of k steps stands for a true latency in ((k-1)*step, k*step]. The quantile
// interpolates within that interval by rank (the grouped-data quantile), so
// it moves smoothly as samples cross a step boundary instead of jumping a
// whole step, which is a large share of a sub-millisecond latency.
func stepQuantile(sorted []float64, step, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	t := q * float64(n)
	k := math.Round(sorted[min(int(t), n-1)] / step)
	lo := sort.SearchFloat64s(sorted, (k-0.5)*step)
	hi := sort.SearchFloat64s(sorted, (k+0.5)*step)
	return step * (k - 1 + (t-float64(lo))/float64(hi-lo))
}

// median returns the median of the values (0 for none).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}
