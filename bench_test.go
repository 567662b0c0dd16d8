// Benchmarks regenerating every table and figure of the paper's evaluation
// section, plus ablation benches for the RAG design choices DESIGN.md calls
// out. Each bench prints the same rows/series the paper reports (once) and
// times the computation of the artefact from the cached verification grid.
//
// The grid scale defaults to 0.25 of the published dataset sizes to keep
// bench runs minutes-scale; set FACTCHECK_SCALE=1.0 for the full benchmark.
package factcheck

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"factcheck/internal/accuracy"
	"factcheck/internal/core"
	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/det"
	"factcheck/internal/eval"
	"factcheck/internal/kgcheck"
	"factcheck/internal/llm"
	"factcheck/internal/obs"
	"factcheck/internal/rag"
	"factcheck/internal/rerank"
	"factcheck/internal/rules"
	"factcheck/internal/search"
	"factcheck/internal/serve"
	"factcheck/internal/strategy"
	"factcheck/internal/text"
	"factcheck/internal/world"
)

var (
	benchOnce sync.Once
	benchB    *core.Benchmark
	benchRS   *core.ResultSet
	benchRep  *core.ConsensusReport
	benchErr  error

	printOnce sync.Map
)

func benchScale() float64 {
	if s := os.Getenv("FACTCHECK_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.25
}

// grid builds the benchmark and runs the full verification grid once per
// test binary; all artefact benches share it.
func grid(b *testing.B) (*core.Benchmark, *core.ResultSet, *core.ConsensusReport) {
	b.Helper()
	benchOnce.Do(func() {
		bench := core.NewBenchmark(core.Config{Scale: benchScale()})
		rs, err := bench.Run(context.Background())
		if err != nil {
			benchErr = err
			return
		}
		rep, err := bench.RunAllConsensus(context.Background(), rs)
		if err != nil {
			benchErr = err
			return
		}
		benchB, benchRS, benchRep = bench, rs, rep
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchB, benchRS, benchRep
}

// emit prints an artefact once per bench name, so -bench=. output contains
// each table exactly once regardless of b.N.
func emit(b *testing.B, out string) {
	if _, done := printOnce.LoadOrStore(b.Name(), true); !done {
		fmt.Printf("\n----- %s (scale %.2f) -----\n%s\n", b.Name(), benchScale(), out)
	}
}

// BenchmarkTable2DatasetSummary regenerates paper Table 2.
func BenchmarkTable2DatasetSummary(b *testing.B) {
	bench, _, _ := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Table2()
	}
	emit(b, out)
}

// BenchmarkTable3RAGGeneration regenerates paper Table 3 (RAG dataset
// construction cost).
func BenchmarkTable3RAGGeneration(b *testing.B) {
	bench, _, _ := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Table3(500)
	}
	emit(b, out)
}

// BenchmarkTable4RAGConfig regenerates paper Table 4 (pipeline config).
func BenchmarkTable4RAGConfig(b *testing.B) {
	bench, _, _ := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Table4()
	}
	emit(b, out)
}

// BenchmarkTable5Effectiveness regenerates paper Table 5 (class-wise F1 per
// dataset x method x model).
func BenchmarkTable5Effectiveness(b *testing.B) {
	bench, rs, _ := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Table5(rs)
	}
	emit(b, out)
}

// BenchmarkTable6Alignment regenerates paper Table 6 (CA_M and tie rates).
func BenchmarkTable6Alignment(b *testing.B) {
	bench, _, rep := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Table6(rep)
	}
	emit(b, out)
}

// BenchmarkTable7Consensus regenerates paper Table 7 (consensus F1 under
// the three arbiters).
func BenchmarkTable7Consensus(b *testing.B) {
	bench, _, rep := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Table7(rep)
	}
	emit(b, out)
}

// BenchmarkTable8Latency regenerates paper Table 8 (IQR-filtered execution
// times).
func BenchmarkTable8Latency(b *testing.B) {
	bench, rs, _ := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Table8(rs)
	}
	emit(b, out)
}

// BenchmarkTable9ErrorClusters regenerates paper Table 9 (error clustering
// into E1-E6 with uniqueness ratios).
func BenchmarkTable9ErrorClusters(b *testing.B) {
	bench, rs, _ := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Table9(rs, llm.MethodDKA)
	}
	emit(b, out)
}

// BenchmarkFigure2RankedF1 regenerates paper Figure 2 (cross-dataset F1
// rankings with the random-guess baseline).
func BenchmarkFigure2RankedF1(b *testing.B) {
	bench, rs, rep := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.ComputeFigure2(rs, rep).String()
	}
	emit(b, out)
}

// BenchmarkFigure3Pareto regenerates paper Figure 3 (cost/effectiveness
// Pareto frontier).
func BenchmarkFigure3Pareto(b *testing.B) {
	bench, rs, _ := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.ComputeFigure3(rs).String()
	}
	emit(b, out)
}

// BenchmarkFigure4UpSet regenerates paper Figure 4 (correct-prediction
// intersections across models).
func BenchmarkFigure4UpSet(b *testing.B) {
	bench, rs, _ := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = bench.Figure4(rs)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, out)
}

// BenchmarkRAGDatasetStats regenerates the RAG dataset statistics of paper
// §4.1 (questions, similarity tiers, document pools, text coverage).
func BenchmarkRAGDatasetStats(b *testing.B) {
	bench, _, _ := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.ComputeRAGStats(200).String()
	}
	emit(b, out)
}

// --- ablation benches -------------------------------------------------

// ablationFacts returns a fixed FactBench slice for pipeline ablations.
func ablationFacts(bench *core.Benchmark, n int) []*dataset.Fact {
	facts := bench.Datasets[dataset.FactBench].Facts
	if len(facts) > n {
		facts = facts[:n]
	}
	return facts
}

// ablationF1 runs RAG verification with the given pipeline over the slice
// and returns F1(T)/F1(F).
func ablationF1(b *testing.B, bench *core.Benchmark, p *rag.Pipeline, facts []*dataset.Fact) (float64, float64) {
	b.Helper()
	m, err := bench.Model(llm.Gemma2)
	if err != nil {
		b.Fatal(err)
	}
	v := strategy.RAG{Pipeline: p}
	var conf eval.Confusion
	for _, f := range facts {
		out, err := v.Verify(context.Background(), m, f)
		if err != nil {
			b.Fatal(err)
		}
		conf.Add(out.Gold, out.Verdict.Bool(), out.Verdict != strategy.Invalid)
	}
	return conf.F1True(), conf.F1False()
}

// BenchmarkAblationQuestionSelection sweeps the question relevance
// threshold tau and the number of selected questions (paper Table 4 chose
// tau=0.5, 3 questions).
func BenchmarkAblationQuestionSelection(b *testing.B) {
	bench, _, _ := grid(b)
	facts := ablationFacts(bench, 150)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = ""
		for _, tau := range []float64{0.3, 0.5, 0.7} {
			for _, nq := range []int{1, 3, 5} {
				p := rag.New(bench.Engine)
				p.DisableCache = true
				p.Config.Tau = tau
				p.Config.SelectedQuestions = nq
				f1t, f1f := ablationF1(b, bench, p, facts)
				out += fmt.Sprintf("tau=%.1f questions=%d -> F1(T)=%.2f F1(F)=%.2f\n", tau, nq, f1t, f1f)
			}
		}
	}
	emit(b, out)
}

// BenchmarkAblationDocSelection sweeps k_d (selected documents) and the
// sliding-window size (paper chose k_d=10, window=3).
func BenchmarkAblationDocSelection(b *testing.B) {
	bench, _, _ := grid(b)
	facts := ablationFacts(bench, 150)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = ""
		for _, kd := range []int{2, 5, 10, 20} {
			p := rag.New(bench.Engine)
			p.DisableCache = true
			p.Config.SelectedDocs = kd
			f1t, f1f := ablationF1(b, bench, p, facts)
			out += fmt.Sprintf("k_d=%-2d window=3 -> F1(T)=%.2f F1(F)=%.2f\n", kd, f1t, f1f)
		}
		for _, win := range []int{1, 3, 5} {
			p := rag.New(bench.Engine)
			p.DisableCache = true
			p.Config.Window = win
			f1t, f1f := ablationF1(b, bench, p, facts)
			out += fmt.Sprintf("k_d=10 window=%d -> F1(T)=%.2f F1(F)=%.2f\n", win, f1t, f1f)
		}
	}
	emit(b, out)
}

// BenchmarkAblationSourceFilter toggles the circular-verification source
// filter (S_KG): with the filter off, KG source pages leak into evidence
// and inflate agreement with the KG's own (possibly wrong) claims.
func BenchmarkAblationSourceFilter(b *testing.B) {
	bench, _, _ := grid(b)
	facts := ablationFacts(bench, 200)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = ""
		for _, filter := range []bool{true, false} {
			p := rag.New(bench.Engine)
			p.DisableCache = true
			p.Config.FilterSKG = filter
			f1t, f1f := ablationF1(b, bench, p, facts)
			out += fmt.Sprintf("filterSKG=%-5v -> F1(T)=%.2f F1(F)=%.2f\n", filter, f1t, f1f)
		}
	}
	emit(b, out)
}

// BenchmarkAblationConsensus compares consensus quorums: the paper's
// 3-of-4 majority with arbitration versus a strict 4-of-4 unanimity rule
// (ties and splits default to "false").
func BenchmarkAblationConsensus(b *testing.B) {
	_, rs, _ := grid(b)
	models := []string{llm.Gemma2, llm.Qwen25, llm.Llama31, llm.Mistral}
	perFact, err := rs.PerFact(dataset.FactBench, llm.MethodDKA, models)
	if err != nil {
		b.Fatal(err)
	}
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var majority, unanimous eval.Confusion
		for _, outs := range perFact {
			votes := 0
			for _, o := range outs {
				if o.Verdict == strategy.True {
					votes++
				}
			}
			majority.Add(outs[0].Gold, votes >= 3, true)
			unanimous.Add(outs[0].Gold, votes == 4, true)
		}
		out = fmt.Sprintf("quorum 3-of-4 -> F1(T)=%.2f F1(F)=%.2f\nquorum 4-of-4 -> F1(T)=%.2f F1(F)=%.2f\n",
			majority.F1True(), majority.F1False(), unanimous.F1True(), unanimous.F1False())
	}
	emit(b, out)
}

// BenchmarkBaselineKGCheck evaluates the internal KG-based checkers
// (KLinker / PredPath style, paper Table 1) against the benchmark,
// quantifying the coherence-vs-correspondence gap.
func BenchmarkBaselineKGCheck(b *testing.B) {
	bench, _, _ := grid(b)
	d := bench.Datasets[dataset.FactBench]
	linker := kgcheck.NewLinker(bench.World)
	pred := kgcheck.NewPredPath(bench.World)
	rng := det.Source("bench-kgcheck")
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = ""
		for _, c := range []kgcheck.Checker{linker, pred} {
			th := kgcheck.BestThreshold(c, d, 200, rng)
			ev := kgcheck.Evaluate(c, d, th)
			out += fmt.Sprintf("%-9s threshold=%.2f F1(T)=%.2f F1(F)=%.2f accuracy=%.2f\n",
				c.Name(), th, ev.F1True(), ev.F1False(), ev.Accuracy())
		}
	}
	emit(b, out)
}

// BenchmarkRuleEngine evaluates the ontology-rule extension (paper §8):
// snapshot rules are circularly perfect, structural rules decide almost
// nothing on constraint-respecting negatives.
func BenchmarkRuleEngine(b *testing.B) {
	bench, _, _ := grid(b)
	engine := rules.NewEngine(bench.World)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = ""
		for _, dn := range dataset.AllNames {
			st := engine.Evaluate(bench.Datasets[dn])
			out += fmt.Sprintf("%-10s snapshot rules: coverage=%.2f precision=%.2f (entailed %d, violated %d, unknown %d)\n",
				dn, st.Coverage(), st.Precision(), st.Entailed, st.Violated, st.Unknown)
		}
	}
	emit(b, out)
}

// BenchmarkAccuracyEstimation runs sampling-based KG accuracy estimation
// (the paper's motivating use case) with an expert oracle vs an LLM
// annotator, reporting estimate quality and cost.
func BenchmarkAccuracyEstimation(b *testing.B) {
	bench, _, _ := grid(b)
	ctx := context.Background()
	m, err := bench.Model(llm.Gemma2)
	if err != nil {
		b.Fatal(err)
	}
	n := accuracy.RequiredSampleSize(0.05, 0.95)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = ""
		for _, dn := range dataset.AllNames {
			d := bench.Datasets[dn]
			mu := d.Stats().GoldAccuracy
			for _, a := range []accuracy.Annotator{
				accuracy.Oracle{},
				&accuracy.LLMAnnotator{Model: m, Verifier: strategy.GIV{FewShot: true}},
			} {
				est, err := accuracy.SRS(ctx, d, a, n, 0.95, "bench")
				if err != nil {
					b.Fatal(err)
				}
				out += fmt.Sprintf("%-10s %-22s true=%.3f est=%.3f CI=[%.3f,%.3f] covers=%v time=%.0fs\n",
					dn, a.Name(), mu, est.MuHat, est.Lower, est.Upper,
					est.Contains(mu), est.Cost.Time.Seconds())
			}
		}
	}
	emit(b, out)
}

// BenchmarkVerificationThroughput measures raw end-to-end verification
// throughput of a single model under each method (facts verified per
// second of real compute, not simulated latency).
func BenchmarkVerificationThroughput(b *testing.B) {
	bench, _, _ := grid(b)
	facts := bench.Datasets[dataset.FactBench].Facts
	m, err := bench.Model(llm.Gemma2)
	if err != nil {
		b.Fatal(err)
	}
	for _, method := range llm.AllMethods {
		b.Run(string(method), func(b *testing.B) {
			v, err := bench.Verifier(method)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := facts[i%len(facts)]
				if _, err := v.Verify(context.Background(), m, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- grid scheduler benches ---------------------------------------------

// benchmarkGridRun times a cold whole-grid run (all datasets, methods and
// models at a small scale) at the given worker-pool parallelism. The
// benchmark instance is rebuilt outside the timer each iteration so every
// timed run pays the full retrieval and search-engine indexing cost, like
// a cold invocation.
func benchmarkGridRun(b *testing.B, par int) {
	cfg := core.Config{Scale: 0.05, Small: true, Parallelism: par}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bench := core.NewBenchmark(cfg)
		b.StartTimer()
		if _, err := bench.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridRunSequential is the old execution model: one worker, i.e.
// the strictly sequential cell-by-cell loop the scheduler replaced.
func BenchmarkGridRunSequential(b *testing.B) { benchmarkGridRun(b, 1) }

// BenchmarkGridRunPooled drains the same grid with the streaming worker
// pool at GOMAXPROCS parallelism; on multi-core machines this is the
// wall-clock win of the scheduler (results stay byte-identical).
func BenchmarkGridRunPooled(b *testing.B) { benchmarkGridRun(b, runtime.GOMAXPROCS(0)) }

// benchmarkGridRunStore times a whole-grid run against a result store. The
// timed region covers opening the store (snapshot load + decode) and the
// run itself; the benchmark substrates are rebuilt outside the timer. Cold
// runs get a fresh empty directory per iteration; resumed runs replay a
// fully warm store, the store's steady state, where the grid completes
// with zero verifier calls.
func benchmarkGridRunStore(b *testing.B, warm bool) {
	cfg := core.Config{Scale: 0.05, Small: true}
	ctx := context.Background()
	warmDir := b.TempDir()
	if warm {
		st, err := core.OpenStore(warmDir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.NewBenchmark(cfg).Run(ctx, core.WithStore(st)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := warmDir
		if !warm {
			dir = b.TempDir()
		}
		bench := core.NewBenchmark(cfg)
		b.StartTimer()
		st, err := core.OpenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bench.Run(ctx, core.WithStore(st)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridRunCold runs the grid against an empty store: full
// verification cost plus snapshot persistence.
func BenchmarkGridRunCold(b *testing.B) { benchmarkGridRunStore(b, false) }

// BenchmarkGridRunResumed replays the same grid from a fully warm store;
// the gap versus BenchmarkGridRunCold is the warm-store speedup (resumed
// runs of partially warm stores fall in between, proportional to the
// missing slice).
func BenchmarkGridRunResumed(b *testing.B) { benchmarkGridRunStore(b, true) }

// --- serving-layer benches ----------------------------------------------

// serveBenchConfig keeps the service's backpressure layers out of the
// measurement: the benches time the verdict lookup stack, not the limiter.
func serveBenchConfig() serve.Config {
	return serve.Config{Rate: 1e12, Burst: 1e12, QueueDepth: 64}
}

// serveVerifyOnce posts one /v1/verify request through the handler.
func serveVerifyOnce(b *testing.B, h http.Handler, req serve.VerifyRequest) {
	b.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/verify", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		b.Fatalf("verify %s: status %d: %s", req.FactID, w.Code, w.Body.String())
	}
}

// BenchmarkServeVerify measures one POST /v1/verify at the service's three
// temperatures, using the RAG method (whose retrieval stage dominates a
// cold verification, as in production):
//
//	cold        every request is a first touch: full verification
//	store-warm  the cell snapshot is in the result store, the LRU is empty
//	lru-warm    the verdict is in the in-memory LRU (steady state for a
//	            zipf-hot fact)
//
// The lru-warm/cold gap is the serving layer's headline number; store-warm
// sits in between (snapshot lookup + whole-cell LRU hydration).
func BenchmarkServeVerify(b *testing.B) {
	cfg := core.Config{Scale: 0.05, Small: true}
	cell := core.Cell{Dataset: dataset.FactBench, Method: llm.MethodRAG, Model: llm.Gemma2}
	mkReq := func(factID string) serve.VerifyRequest {
		return serve.VerifyRequest{Dataset: string(cell.Dataset), Method: string(cell.Method), Model: cell.Model, FactID: factID}
	}

	b.Run("cold", func(b *testing.B) {
		bench := core.NewBenchmark(cfg)
		facts := bench.Datasets[cell.Dataset].Facts
		svc := serve.New(bench, core.NewMemoryStore(), serveBenchConfig())
		h := svc.Handler()
		j := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if j == len(facts) {
				// Every fact of the instance has been verified once; a
				// fresh benchmark restores genuinely cold caches.
				b.StopTimer()
				svc.Drain()
				bench = core.NewBenchmark(cfg)
				facts = bench.Datasets[cell.Dataset].Facts
				svc = serve.New(bench, core.NewMemoryStore(), serveBenchConfig())
				h = svc.Handler()
				j = 0
				b.StartTimer()
			}
			serveVerifyOnce(b, h, mkReq(facts[j].ID))
			j++
		}
		b.StopTimer()
		svc.Drain()
	})

	bench := core.NewBenchmark(cfg)
	facts := bench.Datasets[cell.Dataset].Facts
	outs, err := bench.RunCell(context.Background(), cell.Dataset, cell.Method, cell.Model)
	if err != nil {
		b.Fatal(err)
	}
	store := core.NewMemoryStore()
	if err := store.Put(bench.CellKey(cell).Fingerprint(), outs); err != nil {
		b.Fatal(err)
	}

	b.Run("store-warm", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh service per iteration keeps the LRU empty, so the
			// timed request pays the snapshot lookup plus the whole-cell
			// LRU hydration it triggers.
			b.StopTimer()
			svc := serve.New(bench, store, serveBenchConfig())
			h := svc.Handler()
			b.StartTimer()
			serveVerifyOnce(b, h, mkReq(facts[i%len(facts)].ID))
			b.StopTimer()
			svc.Drain()
			b.StartTimer()
		}
	})

	b.Run("lru-warm", func(b *testing.B) {
		svc := serve.New(bench, store, serveBenchConfig())
		defer svc.Drain()
		h := svc.Handler()
		for _, f := range facts {
			serveVerifyOnce(b, h, mkReq(f.ID))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveVerifyOnce(b, h, mkReq(facts[i%len(facts)].ID))
		}
		b.StopTimer()
		// Carry the server-side latency summary into the bench artefact:
		// benchjson folds custom units into each benchmark's metrics map,
		// so BENCH_N.json records exact histogram percentiles (process-wide
		// endpoint histogram, dominated by this warm loop's b.N requests)
		// next to the wall-clock ns/op.
		if s, ok := obs.Default.Summaries()["endpoint/verify"]; ok {
			b.ReportMetric(s.P50MS, "p50_ms")
			b.ReportMetric(s.P95MS, "p95_ms")
			b.ReportMetric(s.P99MS, "p99_ms")
		}
	})
}

// BenchmarkSearchEngine measures mock-SERP query latency.
func BenchmarkSearchEngine(b *testing.B) {
	bench, _, _ := grid(b)
	facts := bench.Datasets[dataset.FactBench].Facts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := facts[i%len(facts)]
		if _, err := bench.Engine.Search(f.ID, "who founded the company", search.DefaultSERPSize); err != nil {
			b.Fatal(err)
		}
	}
}

// --- retrieval substrate benches ----------------------------------------

// searchOnce issues one SERP query over the named retrieval path: "scan"
// (dense cosine + full sort) or "search" (posting lists + top-k heap, the
// production path). Both return byte-identical results (see the golden
// ladder in internal/search); only the cost differs.
func searchOnce(e *search.Engine, mode, factID, q string, n int) error {
	var err error
	if mode == "scan" {
		_, err = e.ScanSearch(factID, q, n)
	} else {
		_, err = e.Search(factID, q, n)
	}
	return err
}

// benchmarkSearchPath measures steady-state SERP query cost — pools warmed
// outside the timer — over one retrieval path, with `par` goroutines
// issuing queries concurrently.
func benchmarkSearchPath(b *testing.B, mode string, par int) {
	bench, _, _ := grid(b)
	facts := ablationFacts(bench, 16)
	queries := []string{
		"who founded the company",
		"award winner record",
		"married in the capital",
		"regional registry profile",
	}
	for _, f := range facts {
		// Warm both paths' per-pool state: index shards and scan vectors.
		if _, err := bench.Engine.Search(f.ID, queries[0], 1); err != nil {
			b.Fatal(err)
		}
		if _, err := bench.Engine.ScanSearch(f.ID, queries[0], 1); err != nil {
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
				if err := searchOnce(bench.Engine, mode, f.ID, q, search.DefaultSERPSize); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// --- sparse scoring substrate benches ------------------------------------

// benchmarkRerankDocs measures phase 4a of the RAG pipeline in isolation:
// fetching and reranking a fact's full candidate pool (up to the pipeline's
// CandidateCap of 120 docs) against the verbalised sentence, then selecting
// k_d. The dense path re-embeds the reference and every candidate per call,
// exactly as the retired pipeline did; the sparse path embeds the reference
// once and consumes the doc table's precomputed vectors. Scores and
// selection are bit-identical (see internal/rag's golden tests); only the
// cost differs.
func benchmarkRerankDocs(b *testing.B, sparse bool) {
	bench := core.NewBenchmark(core.Config{Scale: 0.1, Small: true})
	ranker := rerank.NewDocumentRanker()
	f := bench.Datasets[dataset.FactBench].Facts[0]
	sentence := strategy.ClaimFor(f).Sentence
	items, err := bench.Engine.Search(f.ID, sentence, rag.DefaultConfig().CandidateCap)
	if err != nil {
		b.Fatal(err)
	}
	if len(items) < 60 {
		b.Fatalf("pool too small for a doc-rerank bench: %d candidates", len(items))
	}
	kd := rag.DefaultConfig().SelectedDocs
	type scoredDoc struct {
		id    string
		score float64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docs := make([]scoredDoc, 0, len(items))
		if sparse {
			refVec := text.SparseEmbed(sentence)
			for _, it := range items {
				de, err := bench.Engine.FetchEvidence(it.DocID)
				if err != nil {
					b.Fatal(err)
				}
				if de.Empty || de.Text == "" {
					continue
				}
				s := ranker.ScoreVec(refVec, sentence, de.Vec, de.Full)
				docs = append(docs, scoredDoc{id: de.DocID, score: s})
			}
		} else {
			for _, it := range items {
				d, err := bench.Engine.Fetch(it.DocID)
				if err != nil {
					b.Fatal(err)
				}
				if d.Empty || d.Text == "" {
					continue
				}
				s := ranker.Score(sentence, d.Title+" "+d.Text)
				docs = append(docs, scoredDoc{id: d.DocID, score: s})
			}
		}
		sort.SliceStable(docs, func(i, j int) bool {
			if docs[i].score != docs[j].score {
				return docs[i].score > docs[j].score
			}
			return docs[i].id < docs[j].id
		})
		if len(docs) > kd {
			docs = docs[:kd]
		}
	}
}

// BenchmarkRerankDocs is the tentpole's microbench: the dense/sparse gap on
// a full candidate-pool document rerank.
func BenchmarkRerankDocs(b *testing.B) {
	b.Run("dense", func(b *testing.B) { benchmarkRerankDocs(b, false) })
	b.Run("sparse", func(b *testing.B) { benchmarkRerankDocs(b, true) })
}

// benchmarkColdCell times one cold, store-less verification cell — every
// fact of the FactBench x RAG x gemma2 slice verified end-to-end with no
// result store, no verdict cache, and the evidence cache dropped before
// each iteration, so every timed run pays full retrieval (question
// generation and ranking, SERP queries, document reranking, chunking) and
// model simulation for every fact. The static corpus substrate — document
// pools and inverted indexes — is materialised once outside the timer, as
// in PR 2's steady-state search benches: that is the serving steady state,
// where the 512-fact shard store is warm but nothing about a request's
// verification is cached. The dense baseline re-embeds the reference and
// every candidate per rerank call, exactly as the retired pipeline did.
func benchmarkColdCell(b *testing.B, dense bool) {
	cfg := core.Config{Scale: 0.05, Small: true}
	ctx := context.Background()
	bench := core.NewBenchmark(cfg)
	bench.Pipeline.DenseScoring = dense
	// Warm pools and indexes; verification state is re-cooled per iteration.
	if _, err := bench.RunCell(ctx, dataset.FactBench, llm.MethodRAG, llm.Gemma2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bench.Pipeline.ClearCache()
		b.StartTimer()
		if _, err := bench.RunCell(ctx, dataset.FactBench, llm.MethodRAG, llm.Gemma2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdCell is the tentpole's macrobench: the dense/sparse gap on a
// whole cold verification cell. Outputs are byte-identical across the two
// paths (golden-tested); the gap is pure scoring-substrate cost.
func BenchmarkColdCell(b *testing.B) {
	b.Run("dense", func(b *testing.B) { benchmarkColdCell(b, true) })
	b.Run("sparse", func(b *testing.B) { benchmarkColdCell(b, false) })
}

// corpusScaleEngine builds a standalone search engine whose per-fact pools
// follow `scale`× the paper's size distribution (mean ≈155·scale docs), so
// the scan/indexed asymptotics separate as the corpus grows. Pools
// for the benched facts are materialised (and both paths' per-pool state
// warmed) outside the timer.
func corpusScaleEngine(b *testing.B, scale int) (*search.Engine, []*dataset.Fact) {
	b.Helper()
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.2)
	gen := corpus.NewGenerator(w)
	gen.MeanDocs *= float64(scale)
	gen.StdDocs *= float64(scale)
	gen.MaxDocs *= scale
	e := search.NewEngine(gen, d)
	facts := d.Facts
	if len(facts) > 4 {
		facts = facts[:4]
	}
	for _, f := range facts {
		if _, err := e.Search(f.ID, "warm", 1); err != nil {
			b.Fatal(err)
		}
		if _, err := e.ScanSearch(f.ID, "warm", 1); err != nil {
			b.Fatal(err)
		}
	}
	return e, facts
}

// benchmarkSearchScale runs steady-state SERP queries over one retrieval
// path at a given corpus scale. Queries are fact-derived, like the RAG
// pipeline's (the claim sentence and its entity labels) — the production
// retrieval workload, where query terms overlap the fact's pool.
func benchmarkSearchScale(b *testing.B, mode string, scale int) {
	e, facts := corpusScaleEngine(b, scale)
	type job struct{ factID, query string }
	var jobs []job
	for _, f := range facts {
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
		if err := searchOnce(e, mode, j.factID, j.query, search.DefaultSERPSize); err != nil {
			b.Fatal(err)
		}
	}
}

// searchBench enumerates one path's sub-benchmarks: 1 and 8 concurrent
// query streams over the shared grid fixture, plus single-stream runs at
// growing corpus scales: scan grows with pool size times vector width,
// indexed with the postings of the query's dimensions. The 10× and 100×
// scales are not served; they show what exhaustive retrieval would cost
// on larger pools.
func searchBench(b *testing.B, mode string) {
	b.Run("par1", func(b *testing.B) { benchmarkSearchPath(b, mode, 1) })
	b.Run("par8", func(b *testing.B) { benchmarkSearchPath(b, mode, 8) })
	for _, scale := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("corpus%dx", scale), func(b *testing.B) { benchmarkSearchScale(b, mode, scale) })
	}
}

// --- consensus engine benches ---------------------------------------------

// BenchmarkConsensus times one full consensus decision per iteration
// through the serving layer's exported Consensus entry point: cost-ordered
// tiers with early-stop majority voting. Config.Pace makes every simulated
// voter call really occupy (a scaled-down copy of) its simulated latency,
// so a decision pays the cheap quorum tier's critical path on unanimous
// facts and escalates to the full ensemble only on disagreement.
//
// cold rotates through every fact once and rebuilds the service when the
// instance is exhausted, so each timed decision pays full verification for
// each dispatched vote; lru-warm primes a small working set with the same
// call it times, so each timed decision is pure engine + cache cost (the
// steady state for a zipf-hot fact).
func BenchmarkConsensus(b *testing.B) {
	b.Run("cold", func(b *testing.B) { benchmarkConsensus(b, false) })
	b.Run("lru-warm", func(b *testing.B) { benchmarkConsensus(b, true) })
}

func benchmarkConsensus(b *testing.B, warm bool) {
	cfg := core.Config{Scale: 0.05, Small: true, Pace: 0.02}
	ctx := context.Background()
	scfg := serve.Config{Rate: 1e12, Burst: 1e12, QueueDepth: 64, Workers: 8}
	newSvc := func() (*serve.Service, []*dataset.Fact) {
		bench := core.NewBenchmark(cfg)
		return serve.New(bench, core.NewMemoryStore(), scfg), bench.Datasets[dataset.FactBench].Facts
	}
	svc, facts := newSvc()
	if warm {
		if len(facts) > 16 {
			facts = facts[:16]
		}
		// The timed call consults the same votes on every pass, so one
		// priming pass makes every consulted vote an LRU hit.
		for _, f := range facts {
			if _, err := svc.Consensus(ctx, f.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
	j := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !warm && j == len(facts) {
			// Every fact has been decided once; a fresh service restores
			// genuinely cold voter caches.
			b.StopTimer()
			svc.Drain()
			svc, facts = newSvc()
			j = 0
			b.StartTimer()
		}
		f := facts[j%len(facts)]
		j++
		if _, err := svc.Consensus(ctx, f.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	svc.Drain()
}

// BenchmarkSearchScan times the retired linear-scan ranking (O(pool·dims)
// cosine + full sort).
func BenchmarkSearchScan(b *testing.B) { searchBench(b, "scan") }

// BenchmarkSearchIndexed times the production path, Engine.Search: the
// exhaustive posting-list + bounded-heap ranking. The gap versus
// BenchmarkSearchScan is the inverted index's win.
func BenchmarkSearchIndexed(b *testing.B) { searchBench(b, "search") }
