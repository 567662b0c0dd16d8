package obs

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-5, 0},
		{0, 0},
		{1, 0},
		{2, 1},
		{3, 2},
		{4, 2},
		{5, 3},
		{8, 3},
		{9, 4},
		{1024, 10},
		{1025, 11},
		{time.Microsecond, 10}, // 1000 ns <= 1024
		{time.Millisecond, 20}, // 1e6 ns <= 2^20
		{time.Second, 30},      // 1e9 ns <= 2^30
		{time.Duration(1) << 61, 61},
		{time.Duration(1)<<61 + 1, 62},
		{time.Duration(math.MaxInt64), 62},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every observation must satisfy d <= BucketUpper(bucketIndex(d)) and,
	// for buckets past the first, d > BucketUpper(i-1).
	for _, d := range []time.Duration{1, 2, 3, 7, 8, 9, 1 << 20, 1<<20 + 1, 1 << 40} {
		i := bucketIndex(d)
		if d > BucketUpper(i) {
			t.Errorf("d=%d above its bucket upper %d", d, BucketUpper(i))
		}
		if i > 0 && d <= BucketUpper(i-1) {
			t.Errorf("d=%d should have landed in bucket %d", d, i-1)
		}
	}
	if BucketUpper(NumBuckets-1) != time.Duration(math.MaxInt64) {
		t.Errorf("last bucket upper = %d, want MaxInt64", BucketUpper(NumBuckets-1))
	}
}

// refQuantile is the plain sorted-sample nearest-rank quantile, bucketised
// to the same power-of-two resolution the histogram can express.
func refQuantile(samples []time.Duration, q float64) time.Duration {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return BucketUpper(bucketIndex(sorted[rank-1]))
}

func TestQuantileMatchesSortedReference(t *testing.T) {
	sets := [][]time.Duration{
		{5},
		{1, 2, 3},
		{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000},
		{time.Microsecond, 3 * time.Microsecond, 90 * time.Microsecond,
			time.Millisecond, 4 * time.Millisecond, 40 * time.Millisecond,
			time.Second, 2 * time.Second},
	}
	// A deterministic pseudo-random spread exercising many buckets.
	var spread []time.Duration
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 5000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		spread = append(spread, time.Duration(x%uint64(10*time.Second)))
	}
	sets = append(sets, spread)

	for si, samples := range sets {
		var h Histogram
		for _, d := range samples {
			h.Observe(d)
		}
		s := h.Snapshot()
		if s.Count != uint64(len(samples)) {
			t.Fatalf("set %d: count %d, want %d", si, s.Count, len(samples))
		}
		for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0} {
			got := s.Quantile(q)
			want := refQuantile(samples, q)
			if got != want {
				t.Errorf("set %d q=%v: histogram %v, reference %v", si, q, got, want)
			}
		}
	}
}

func TestQuantileEmptyAndMean(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	if s.Count != 0 || s.Sum != 0 {
		t.Errorf("empty snapshot count %d sum %v, want 0 and 0", s.Count, s.Sum)
	}
	h.Observe(10)
	h.Observe(30)
	s = h.Snapshot()
	if got := s.Sum; got != 40 {
		t.Errorf("sum = %v, want 40", got)
	}
	if got := s.Sum / time.Duration(s.Count); got != 20 {
		t.Errorf("mean (sum/count) = %v, want 20", got)
	}
}

func TestConcurrentAddDeterminism(t *testing.T) {
	const (
		goroutines = 8
		perG       = 10000
	)
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Each goroutine walks the same duration ladder, so the
				// final per-bucket counts are independent of interleaving.
				h.Observe(time.Duration(1) << uint(i%40))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count %d, want %d", s.Count, goroutines*perG)
	}
	var want Histogram
	for i := 0; i < perG; i++ {
		want.Observe(time.Duration(1) << uint(i%40))
	}
	ws := want.Snapshot()
	for i := range s.Buckets {
		if s.Buckets[i] != goroutines*ws.Buckets[i] {
			t.Errorf("bucket %d: %d, want %d", i, s.Buckets[i], goroutines*ws.Buckets[i])
		}
	}
	if s.Sum != time.Duration(goroutines)*ws.Sum {
		t.Errorf("sum %d, want %d", s.Sum, time.Duration(goroutines)*ws.Sum)
	}
}

func TestObserveZeroAlloc(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(123 * time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per call, want 0", allocs)
	}
}

func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("layer", "lru")
	if b := r.Histogram("layer", "lru"); a != b {
		t.Fatal("same (family,label) returned different histograms")
	}
	if c := r.Histogram("layer", "store"); a == c {
		t.Fatal("distinct labels share a histogram")
	}
	if d := r.Histogram("endpoint", "lru"); a == d {
		t.Fatal("distinct families share a histogram")
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := 37 * time.Microsecond
		for pb.Next() {
			h.Observe(d)
			d += 13
		}
	})
}
