// Package obs is the serving stack's zero-dependency observability
// substrate: per-request traces (context-propagated spans over pooled
// buffers, kept in a bounded ring for the /v1/trace debug endpoint),
// fixed-bucket power-of-two latency histograms updated with a single
// atomic add, and a Prometheus text-format exposition of both plus any
// caller-supplied counters.
//
// The design constraint is that instrumentation must never regress the
// warm path: histogram recording is one atomic add per bucket touch and
// allocates nothing, and an unsampled request carries a nil trace whose
// span calls are branch-and-return. Everything time-shaped lives here;
// nothing in this package ever feeds result-store fingerprints or loadgen
// digests — timing is observable, never outcome-determining.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every Histogram. Bucket i counts
// observations d with d <= 2^i nanoseconds (cumulative-friendly inclusive
// upper bounds); the last bucket absorbs everything beyond 2^62 ns (~146
// years), so no observation is ever dropped.
const NumBuckets = 63

// Histogram is a fixed-bucket power-of-two latency histogram safe for
// concurrent use. Recording is lock-free — one atomic add per bucket plus
// one for the running sum — so it can sit on paths that must stay
// mutex-free and allocation-free (the snapshot fact store's warm reads,
// the top-k). The zero value is ready to use.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	sum     atomic.Uint64 // total observed nanoseconds
}

// bucketIndex maps a duration to its bucket: the smallest i with
// ns <= 2^i. Sub-nanosecond (and negative) observations land in bucket 0.
func bucketIndex(d time.Duration) int {
	ns := uint64(d)
	if d <= 1 {
		return 0
	}
	i := bits.Len64(ns - 1) // smallest i with ns <= 2^i
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// BucketUpper returns bucket i's inclusive upper bound.
func BucketUpper(i int) time.Duration {
	if i >= NumBuckets-1 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(uint64(1) << uint(i))
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIndex(d)].Add(1)
	h.sum.Add(uint64(d))
}

// HistSnapshot is a point-in-time copy of a histogram. Buckets are
// per-bucket (non-cumulative) counts.
type HistSnapshot struct {
	Buckets [NumBuckets]uint64
	Sum     time.Duration
	Count   uint64
}

// Snapshot copies the histogram's counters. Buckets are loaded
// individually, so a snapshot taken concurrently with observations is a
// consistent-enough point in time: every bucket is monotone, and Count is
// derived from the loaded buckets (never ahead of them).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Buckets[i] = c
		s.Count += c
	}
	s.Sum = time.Duration(h.sum.Load())
	return s
}

// Quantile derives the q-quantile (q in (0, 1]) by nearest rank over the
// bucket bounds: the inclusive upper bound of the bucket containing the
// ceil(q*count)-th observation. The derivation is exact at bucket
// resolution — the true sample quantile is guaranteed to lie in the
// returned bucket — which is the strongest claim a fixed-bucket histogram
// can make. Returns 0 for an empty histogram.
func (s *HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range s.Buckets {
		cum += s.Buckets[i]
		if cum >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}
