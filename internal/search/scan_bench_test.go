package search_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"factcheck/internal/core"
	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/search"
	"factcheck/internal/strategy"
	"factcheck/internal/world"
)

// BenchmarkSearchScan times the retired linear-scan ranking (O(pool·dims)
// cosine + full sort), the test-side reference search.ScanRef.
func BenchmarkSearchScan(b *testing.B) { searchBench(b, "scan") }

// BenchmarkSearchIndexed times the production path, Engine.Search: the
// exhaustive posting-list + bounded-heap ranking. The gap versus
// BenchmarkSearchScan is the inverted index's win.
func BenchmarkSearchIndexed(b *testing.B) { searchBench(b, "search") }

// searchBench enumerates one path's sub-benchmarks: 1 and 8 concurrent
// query streams over the default-scale benchmark's engine, plus
// single-stream runs at growing corpus scales: scan grows with pool size
// times vector width, indexed with the postings of the query's dimensions.
// The 10× and 100× scales are not served; they show what exhaustive
// retrieval would cost on larger pools.
func searchBench(b *testing.B, mode string) {
	b.Run("par1", func(b *testing.B) { benchmarkSearchPath(b, mode, 1) })
	b.Run("par8", func(b *testing.B) { benchmarkSearchPath(b, mode, 8) })
	for _, scale := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("corpus%dx", scale), func(b *testing.B) { benchmarkSearchScale(b, mode, scale) })
	}
}

// searcher returns the named retrieval path over e: "scan" (dense cosine +
// full sort) or "search" (posting lists + top-k heap, the production
// path). Both return byte-identical results (TestSearchMatchesScan); only
// the cost differs.
func searcher(e *search.Engine, mode string) func(factID, q string, n int) ([]search.SERPItem, error) {
	if mode == "scan" {
		return search.NewScanRef(e).Search
	}
	return e.Search
}

var (
	pathOnce  sync.Once
	pathBench *core.Benchmark
)

// benchmarkSearchPath measures steady-state SERP query cost — pools warmed
// outside the timer — over one retrieval path, with `par` goroutines
// issuing queries concurrently. The engine is the one core.NewBenchmark
// builds at the default scale (0.25), shared by every sub-benchmark.
func benchmarkSearchPath(b *testing.B, mode string, par int) {
	pathOnce.Do(func() { pathBench = core.NewBenchmark(core.Config{Scale: 0.25}) })
	facts := pathBench.Datasets[dataset.FactBench].Facts
	if len(facts) > 16 {
		facts = facts[:16]
	}
	queries := []string{
		"who founded the company",
		"award winner record",
		"married in the capital",
		"regional registry profile",
	}
	run := searcher(pathBench.Engine, mode)
	for _, f := range facts {
		// Warm the path's per-pool state: index shards, scan vectors.
		if _, err := run(f.ID, queries[0], 1); err != nil {
			b.Fatal(err)
		}
	}
	// Exactly par worker goroutines drain a shared iteration counter
	// (b.RunParallel would multiply par by GOMAXPROCS, mislabelling the
	// stream count on multi-core hosts).
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i > b.N {
					return
				}
				f := facts[i%len(facts)]
				q := queries[i%len(queries)]
				if _, err := run(f.ID, q, search.DefaultSERPSize); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// benchmarkSearchScale runs steady-state SERP queries over one retrieval
// path at a given corpus scale: a standalone engine whose per-fact pools
// follow `scale`× the paper's size distribution (mean ≈155·scale docs), so
// the scan/indexed asymptotics separate as the corpus grows. Queries are
// fact-derived, like the RAG pipeline's (the claim sentence and its entity
// labels) — the production retrieval workload, where query terms overlap
// the fact's pool. Pools are materialised and warmed outside the timer.
func benchmarkSearchScale(b *testing.B, mode string, scale int) {
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.2)
	gen := corpus.NewGenerator(w)
	gen.MeanDocs *= float64(scale)
	gen.StdDocs *= float64(scale)
	gen.MaxDocs *= scale
	run := searcher(search.NewEngine(gen, d), mode)
	facts := d.Facts
	if len(facts) > 4 {
		facts = facts[:4]
	}
	type job struct{ factID, query string }
	var jobs []job
	for _, f := range facts {
		if _, err := run(f.ID, "warm", 1); err != nil {
			b.Fatal(err)
		}
		c := strategy.ClaimFor(f)
		for _, q := range []string{
			c.Sentence,
			f.Subject.Label + " " + f.Object.Label,
			"evidence about " + c.Sentence,
			"the record " + f.Object.Label,
		} {
			jobs = append(jobs, job{f.ID, q})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := jobs[i%len(jobs)]
		if _, err := run(j.factID, j.query, search.DefaultSERPSize); err != nil {
			b.Fatal(err)
		}
	}
}
