package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// latencies is a set of raw client-side samples. Percentiles are always
// taken from the raw samples by nearest rank, never from the obs
// histograms: their power-of-two buckets move a quantile by a factor of two
// when a sample crosses a bucket edge.
type latencies []time.Duration

// nearestRank returns the q-quantile (0 < q <= 1) of the samples by the
// nearest-rank rule: the ceil(q*n)-th smallest sample. It also returns how
// many samples lie strictly beyond that rank. An empty set yields (0, 0).
func nearestRank(samples []time.Duration, q float64) (time.Duration, int) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 over fewer samples is the maximum of a handful of
// requests, not a tail estimate.
const minBeyond = 10

// p99Window is the window size of the reported tail statistic: the
// smallest sample count whose nearest-rank p99 has minBeyond samples
// beyond it.
const p99Window = 100 * minBeyond

// windowedP99 returns the median of the nearest-rank p99s of consecutive
// windows of p99Window samples, taken in arrival order, and the number of
// windows. A single burst of host noise then moves the p99 of one window,
// not the reported figure. ok is false when there is no full window.
func (l latencies) windowedP99() (p99 time.Duration, windows int, ok bool) {
	var ps []float64
	for i := 0; i+p99Window <= len(l); i += p99Window {
		v, _ := nearestRank(l[i:i+p99Window], 0.99)
		ps = append(ps, float64(v))
	}
	if len(ps) == 0 {
		return 0, 0, false
	}
	return time.Duration(median(ps)), len(ps), true
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fmtSamples lists samples in the order they were taken, for the report.
func fmtSamples(v []float64, prec int) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', prec, 64)
	}
	return strings.Join(parts, " ")
}
