package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/obs"
	"factcheck/internal/rag"
	"factcheck/internal/sched"
	"factcheck/internal/search"
	"factcheck/internal/strategy"
	"factcheck/internal/world"
)

// gridScale is the dataset scale of every workload: 1,353 facts on the
// full world, more than search.MaxCachedFacts, so pools are evicted and
// rebuilt during a grid.
const gridScale = 0.1

// gridReferenceDigest is the outcome digest (gridDigest) of the full grid
// at gridScale on the default world. Outcomes are deterministic and
// independent of parallelism and grid order, so every cold grid run must
// reproduce it.
const gridReferenceDigest uint64 = 0xc5daf2eed1ec18dd

// gridSetups is the least number of core.NewBenchmark set-ups a grid run
// takes the median set-up time of.
const gridSetups = 11

// gridConfig is the paper grid at gridScale: 3 datasets x 4 methods x 5
// models on the full world. The seed permutes the order of datasets,
// methods and models, which changes the task queue and so the order in
// which pools are built and evicted, but not the outcomes.
func gridConfig(o options) core.Config {
	rng := rand.New(rand.NewSource(o.seed))
	ds := append([]dataset.Name(nil), dataset.AllNames...)
	ms := append([]llm.Method(nil), llm.AllMethods...)
	models := append([]string(nil), llm.BenchmarkModels...)
	rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
	rng.Shuffle(len(models), func(i, j int) { models[i], models[j] = models[j], models[i] })
	cfg := o.config()
	cfg.Datasets, cfg.Methods, cfg.Models = ds, ms, models
	return cfg
}

func verifications(outcomes map[core.Cell][]strategy.Outcome) int64 {
	var n int64
	for _, outs := range outcomes {
		n += int64(len(outs))
	}
	return n
}

// coldGrid is one cold grid run: the set-up time (core.NewBenchmark), the
// wall time of core.Benchmark.Run and its outcomes.
type coldGrid struct {
	setup, run time.Duration
	outcomes   map[core.Cell][]strategy.Outcome
}

// runColdGrid builds a fresh benchmark and runs the whole grid into a
// fresh on-disk store: a user reproducing the paper.

func runColdGrid(o options, cfg core.Config) (coldGrid, error) {
	var g coldGrid
	t0 := time.Now()
	b := core.NewBenchmark(cfg)
	g.setup = time.Since(t0)
	dir, err := os.MkdirTemp(o.workDir, "grid-store-")
	if err != nil {
		return g, err
	}
	defer os.RemoveAll(dir)
	st, err := core.OpenStore(dir)
	if err != nil {
		return g, err
	}
	t1 := time.Now()
	rs, err := b.Run(context.Background(), core.WithStore(st))
	g.run = time.Since(t1)
	if err != nil {
		return g, fmt.Errorf("grid run: %w", err)
	}
	g.outcomes = rs.Outcomes
	return g, nil
}

// checkGrid counts a grid's verifications and compares its outcome digest
// with the reference.
func checkGrid(rep *report, o options, outcomes map[core.Cell][]strategy.Outcome) uint64 {
	n := verifications(outcomes)
	rep.attempted += n
	d := gridDigest(outcomes)
	if !o.small && d != gridReferenceDigest {
		rep.failed += n
		rep.fail("grid outcome digest %016x, reference %016x", d, gridReferenceDigest)
	}
	return d
}

// gridUntraced repeats cold grid runs for the measured seconds (at least
// twice) and reports the medians.
func gridUntraced(o options) (*report, error) {
	rep := newReport()
	cfg := gridConfig(o)
	var setups, rates []float64
	start := time.Now()
	for len(rates) < 2 || time.Since(start) < time.Duration(o.seconds)*time.Second {
		g, err := runColdGrid(o, cfg)
		if err != nil {
			return nil, err
		}
		checkGrid(rep, o, g.outcomes)
		setups = append(setups, g.setup.Seconds())
		rates = append(rates, float64(verifications(g.outcomes))/g.run.Seconds())
		g.outcomes = nil
		runtime.GC()
	}
	// A run fits only a few cold grids, so set-up is timed on its own too,
	// until there are gridSetups samples to take the median of.
	for len(setups) < gridSetups {
		t0 := time.Now()
		core.NewBenchmark(cfg)
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC()
	}
	rep.note("set-ups %s s; runs %s verifications/s", fmtSamples(setups, 3), fmtSamples(rates, 0))
	rep.set("setup_s", median(setups), "s", len(setups), "core.NewBenchmark, median")
	rep.set("grid_verifications_per_s", median(rates), "1/s", len(rates), "cold core.Benchmark.Run, median")
	return rep, nil
}

// buildTimes times the substrate builds core.NewBenchmark performs.
func buildTimes(rep *report, cfg core.Config) {
	if len(cfg.Datasets) == 0 {
		cfg.Datasets = dataset.AllNames
	}
	if cfg.WorldConfig.Persons == 0 {
		cfg.WorldConfig = world.DefaultConfig()
		if cfg.Small {
			cfg.WorldConfig = world.SmallConfig()
		}
	}
	t0 := time.Now()
	w := world.New(cfg.WorldConfig)
	rep.set("world.build_s", time.Since(t0).Seconds(), "s", 0, "world.New")
	t1 := time.Now()
	var all []*dataset.Dataset
	for _, dn := range cfg.Datasets {
		all = append(all, dataset.Build(w, dn, cfg.Scale))
	}
	rep.set("dataset.build_s", time.Since(t1).Seconds(), "s", 0, "dataset.Build, all datasets")
	t2 := time.Now()
	search.NewEngine(corpus.NewGenerator(w), all...)
	rep.set("search.engine_build_s", time.Since(t2).Seconds(), "s", 0, "corpus.NewGenerator + search.NewEngine")
}

// instrument replaces the benchmark's engine and pipeline with ones built
// over the recorder's wrappers: the PoolSource handed to search.NewEngine
// and the pipeline's Searcher.
func instrument(b *core.Benchmark, rec *recorder) {
	var all []*dataset.Dataset
	for _, dn := range b.Config.Datasets {
		all = append(all, b.Datasets[dn])
	}
	b.Engine = search.NewEngine(tracedPool{src: b.Corpus, rec: rec}, all...)
	b.Pipeline = rag.New(tracedSearcher{eng: b.Engine, rec: rec})
}

// tracedGridRun drives the same task queue core.Benchmark.Run builds for
// a cold store — evidence prefetches first, then every (cell, fact) —
// through sched.New(par).Run, with the benchmark's wrappers around the
// verifiers and models. Run itself has no model hook.
type tracedGridRun struct {
	outcomes  map[core.Cell][]strategy.Outcome
	wall      time.Duration
	tail      time.Duration // last task start -> run end
	ragAsks   int64         // evidence requests: prefetches + RAG verifications
	verifyOps int64
}

func runTracedGrid(ctx context.Context, b *core.Benchmark, st *core.Store, rec *recorder) (tracedGridRun, error) {
	var tr tracedGridRun
	cfg := b.Config
	type cell struct {
		c         core.Cell
		facts     []*dataset.Fact
		model     llm.Model
		verifier  strategy.Verifier
		outs      []strategy.Outcome
		remaining atomic.Int64
	}
	verifiers := map[llm.Method]strategy.Verifier{}
	for _, m := range cfg.Methods {
		v, err := b.Verifier(m)
		if err != nil {
			return tr, err
		}
		verifiers[m] = v
	}
	models := map[string]llm.Model{}
	for _, name := range cfg.Models {
		m, err := b.Model(name)
		if err != nil {
			return tr, err
		}
		models[name] = tracedModel{Model: m, rec: rec}
	}
	var cells []*cell
	for _, dn := range cfg.Datasets {
		for _, m := range cfg.Methods {
			for _, name := range cfg.Models {
				c := &cell{c: core.Cell{Dataset: dn, Method: m, Model: name}, facts: b.Datasets[dn].Facts,
					model: models[name], verifier: tracedVerifier{Verifier: verifiers[m], rec: rec}}
				c.outs = make([]strategy.Outcome, len(c.facts))
				c.remaining.Store(int64(len(c.facts)))
				cells = append(cells, c)
			}
		}
	}
	type task struct {
		prefetch strategy.Prefetcher
		f        *dataset.Fact
		c        *cell
		i        int
	}
	var tasks []task
	for _, m := range cfg.Methods {
		p, ok := verifiers[m].(strategy.Prefetcher)
		if !ok {
			continue
		}
		for _, dn := range cfg.Datasets {
			for _, f := range b.Datasets[dn].Facts {
				tasks = append(tasks, task{prefetch: p, f: f})
			}
		}
	}
	for _, c := range cells {
		for i := range c.facts {
			tasks = append(tasks, task{c: c, i: i})
		}
	}
	var lastStart atomic.Int64
	var ragAsks atomic.Int64
	start := rec.now()
	err := sched.New(cfg.Parallelism).Run(ctx, len(tasks), func(ctx context.Context, ti int) error {
		t := tasks[ti]
		idx := rec.begin("sched.task", int64(ti), -1)
		defer rec.finish(idx)
		for s := int64(rec.now()); ; {
			prev := lastStart.Load()
			if s <= prev || lastStart.CompareAndSwap(prev, s) {
				break
			}
		}
		ctx = withSpan(ctx, int64(ti), idx)
		if t.prefetch != nil {
			ragAsks.Add(1)
			return tracedPrefetch(ctx, rec, t.prefetch, t.f)
		}
		if t.c.c.Method == llm.MethodRAG {
			ragAsks.Add(1)
		}
		out, err := t.c.verifier.Verify(ctx, t.c.model, t.c.facts[t.i])
		if err != nil {
			return err
		}
		t.c.outs[t.i] = out
		if t.c.remaining.Add(-1) == 0 {
			put := rec.begin("results.put", int64(ti), idx)
			err := st.Put(b.CellKey(t.c.c).Fingerprint(), t.c.outs)
			rec.finish(put)
			return err
		}
		return nil
	})
	end := rec.now()
	if err != nil {
		return tr, err
	}
	tr.wall = end - start
	tr.tail = end - time.Duration(lastStart.Load())
	tr.ragAsks = ragAsks.Load()
	tr.outcomes = map[core.Cell][]strategy.Outcome{}
	for _, c := range cells {
		tr.outcomes[c.c] = c.outs
		tr.verifyOps += int64(len(c.outs))
	}
	return tr, nil
}

// ragPhases reads the cumulative RAG phase histograms (exact sums).
type ragPhases struct {
	retrievals               uint64
	questions, rerank, chunk time.Duration
}

func readRAGPhases() ragPhases {
	q := obs.Layer("rag_questions").Snapshot()
	r := obs.Layer("rag_rerank").Snapshot()
	c := obs.Layer("rag_chunk").Snapshot()
	return ragPhases{retrievals: q.Count, questions: q.Sum, rerank: r.Sum, chunk: c.Sum}
}

// setRetrievalLayers reports the rag, search, corpus and index layers from
// spans, phase histograms and engine counters.
func setRetrievalLayers(rep *report, spans []span, self map[string]time.Duration,
	p0, p1 ragPhases, s0, s1 search.Stats, ragAsks int64) {
	retrievals := float64(p1.retrievals - p0.retrievals)
	rep.set("rag.retrieve_calls", retrievals, "count", 0, "retrievals run (singleflight leaders)")
	rep.set("rag.retrieve_self_s", self["rag.retrieve"].Seconds(), "s", 0, "prefetch span minus search children")
	rep.set("rag.questions_s", (p1.questions - p0.questions).Seconds(), "s", 0, "")
	rep.set("rag.rerank_s", (p1.rerank - p0.rerank).Seconds(), "s", 0, "")
	rep.set("rag.chunk_s", (p1.chunk - p0.chunk).Seconds(), "s", 0, "")
	reuse := 0.0
	if ragAsks > 0 {
		reuse = 1 - retrievals/float64(ragAsks)
	}
	rep.set("rag.evidence_reuse_ratio", reuse, "ratio", 0, "1 - retrievals / evidence requests")
	n, _ := spanStats(spans, "search.search")
	rep.set("search.search_calls", float64(n), "count", 0, "")
	rep.set("search.search_self_s", self["search.search"].Seconds(), "s", 0, "")
	rep.set("search.fetch_evidence_s", self["search.fetch_evidence"].Seconds(), "s", 0, "")
	hits, misses := float64(s1.Hits-s0.Hits), float64(s1.Misses-s0.Misses)
	rep.set("search.pool_hit_ratio", ratio(hits, hits+misses), "ratio", 0, "")
	rep.set("search.pools_evicted", float64(s1.Evicted-s0.Evicted), "count", 0, "")
	n, _ = spanStats(spans, "corpus.materialize")
	rep.set("corpus.materialize_calls", float64(n), "count", 0, "")
	rep.set("corpus.materialize_s", self["corpus.materialize"].Seconds(), "s", 0, "")
	q := float64(s1.SearchQueries - s0.SearchQueries)
	rep.set("index.postings_per_query", ratio(float64(s1.PostingsTouched-s0.PostingsTouched), q), "count", 0, "")
	rep.set("index.docs_scored_per_query", ratio(float64(s1.DocsScored-s0.DocsScored), q), "count", 0, "")
	rep.set("index.blocks_skipped_per_query", ratio(float64(s1.BlocksSkipped-s0.BlocksSkipped), q), "count", 0, "")
}

// gridTraced makes one untraced and one traced cold grid run and reports
// the per-layer split of the traced one.
func gridTraced(o options) (*report, error) {
	rep := newReport()
	cfg := gridConfig(o)
	buildTimes(rep, cfg)

	r0 := readRuntime()
	g, err := runColdGrid(o, cfg)
	if err != nil {
		return nil, err
	}
	r1 := readRuntime()
	setRuntimeDeltas(rep, r0, r1, verifications(g.outcomes))
	untracedDigest := checkGrid(rep, o, g.outcomes)
	g.outcomes = nil
	runtime.GC()

	rec := newRecorder()
	b := core.NewBenchmark(cfg)
	instrument(b, rec)
	dir, err := os.MkdirTemp(o.workDir, "grid-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	st, err := core.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	rep.set("results.open_s", time.Since(t0).Seconds(), "s", 0, "core.OpenStore")
	p0, s0 := readRAGPhases(), b.Engine.Stats()
	rec.reset()
	tr, err := runTracedGrid(context.Background(), b, st, rec)
	if err != nil {
		return nil, err
	}
	p1, s1 := readRAGPhases(), b.Engine.Stats()
	if d := checkGrid(rep, o, tr.outcomes); d != untracedDigest {
		rep.fail("traced grid digest %016x differs from the untraced run's %016x", d, untracedDigest)
	}
	spans := rec.snapshot()
	self := selfTimes(spans)
	if n, _ := spanStats(spans, "search.fetch"); n > 0 {
		rep.fail("rag took the plain-fetch path under tracing (%d Fetch calls): a wrapper hides search.EvidenceFetcher", n)
	}

	n, putTime := spanStats(spans, "results.put")
	rep.set("results.put_calls", float64(n), "count", 0, "")
	rep.set("results.put_s", putTime.Seconds(), "s", 0, "")
	rep.set("results.bytes_written", float64(dirBytes(dir)), "B", 0, "")

	par := cfg.Parallelism
	_, busy := spanStats(spans, "sched.task")
	lane := time.Duration(par) * tr.wall
	rep.set("sched.busy_ratio", ratio(float64(busy), float64(lane)), "ratio", 0, "task busy / (workers x wall)")
	rep.set("sched.tail_s", tr.tail.Seconds(), "s", 0, "last task start -> run end")

	var verifyCalls int
	for _, m := range llm.AllMethods {
		k, _ := spanStats(spans, "strategy.verify."+string(m))
		verifyCalls += k
		rep.set("strategy.verify_s."+string(m), self["strategy.verify."+string(m)].Seconds(), "s", 0, "self time")
	}
	rep.set("strategy.verify_calls", float64(verifyCalls), "count", 0, "")
	setRetrievalLayers(rep, spans, self, p0, p1, s0, s1, tr.ragAsks)
	calls := float64(rec.generateCalls.Load())
	rep.set("llm.generate_calls", calls, "count", 0, "")
	rep.set("llm.generate_s", self["llm.generate"].Seconds(), "s", 0, "")
	rep.set("llm.calls_per_verification", ratio(calls, float64(tr.verifyOps)), "ratio", 0, "")
	rep.set("llm.prompt_tokens", float64(rec.promptTokens.Load()), "count", 0, "")
	rep.set("llm.sim_latency_s", time.Duration(rec.simLatency.Load()).Seconds(), "s", 0, "simulated model time, exact")

	attributed := rootTime(spans, func(string) bool { return true })
	setAttribution(rep, self, lane, attributed, tr.wall, g.run)
	return rep, rec.writeTSV(filepath.Join(o.workDir, "spans-grid.tsv"))
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
