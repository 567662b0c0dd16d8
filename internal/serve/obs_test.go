package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/obs"
	"factcheck/internal/strategy"
)

// TestTraceEndToEnd: a cold verify under full sampling must return an
// X-Trace-Id whose /v1/trace payload shows the whole layer stack —
// ratelimit, admit, lru, store, exec_wait and verify under one root — with
// child durations summing to no more than the root's.
func TestTraceEndToEnd(t *testing.T) {
	cfg := permissive()
	cfg.TraceSample = 1
	cfg.TraceSeed = "trace-test"
	svc := newTestService(t, cfg)
	defer svc.Drain()
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		return stubOutcome(cell, f), nil
	}
	h := svc.Handler()
	f := firstFact(dataset.FactBench)

	w := postVerify(t, h, VerifyRequest{
		Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA),
		Model: llm.Gemma2, FactID: f.ID,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("verify: %d: %s", w.Code, w.Body.String())
	}
	id := w.Header().Get("X-Trace-Id")
	if id == "" {
		t.Fatal("sampled response carries no X-Trace-Id")
	}
	if st := w.Header().Get("Server-Timing"); !strings.Contains(st, "total;dur=") {
		t.Errorf("Server-Timing %q missing total", st)
	}

	tw := httptest.NewRecorder()
	h.ServeHTTP(tw, httptest.NewRequest("GET", "/v1/trace/"+id, nil))
	if tw.Code != http.StatusOK {
		t.Fatalf("trace fetch: %d: %s", tw.Code, tw.Body.String())
	}
	var out obs.TraceOut
	if err := json.Unmarshal(tw.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID != id {
		t.Errorf("trace id %q != header %q", out.TraceID, id)
	}
	if len(out.Spans) == 0 || out.Spans[0].Name != "request" || out.Spans[0].Parent != -1 {
		t.Fatalf("malformed root: %+v", out.Spans)
	}
	children := map[string]bool{}
	var childSum float64
	for _, sp := range out.Spans[1:] {
		if sp.Parent == 0 {
			children[sp.Name] = true
			childSum += sp.DurUS
		}
	}
	for _, want := range []string{"ratelimit", "admit", "lru", "store", "exec_wait", "verify"} {
		if !children[want] {
			t.Errorf("cold verify trace missing %q layer span (got %v)", want, children)
		}
	}
	if len(children) < 6 {
		t.Errorf("cold verify trace has %d layer spans, want >= 6", len(children))
	}
	if root := out.Spans[0].DurUS; childSum > root {
		t.Errorf("child spans sum to %.1fus, exceeding root %.1fus", childSum, root)
	}

	// An unknown trace ID is a clean 404.
	nw := httptest.NewRecorder()
	h.ServeHTTP(nw, httptest.NewRequest("GET", "/v1/trace/deadbeef", nil))
	if nw.Code != http.StatusNotFound {
		t.Errorf("unknown trace: %d, want 404", nw.Code)
	}
}

// TestForceTraceHeader: with sampling off, X-Server-Timing: 1 must still
// produce a per-request trace and Server-Timing breakdown, and a plain
// request must not.
func TestForceTraceHeader(t *testing.T) {
	svc := newTestService(t, permissive()) // TraceSample 0
	defer svc.Drain()
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		return stubOutcome(cell, f), nil
	}
	h := svc.Handler()
	f := firstFact(dataset.FactBench)
	body := fmt.Sprintf(`{"dataset":%q,"method":%q,"model":%q,"fact_id":%q}`,
		dataset.FactBench, llm.MethodDKA, llm.Gemma2, f.ID)

	r := httptest.NewRequest("POST", "/v1/verify", strings.NewReader(body))
	r.Header.Set(forceTraceHeader, "1")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("forced verify: %d: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("X-Trace-Id") == "" {
		t.Error("forced request carries no X-Trace-Id")
	}
	if st := w.Header().Get("Server-Timing"); !strings.Contains(st, "lru;dur=") {
		t.Errorf("Server-Timing %q missing layer breakdown", st)
	}

	w2 := postVerify(t, h, VerifyRequest{
		Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA),
		Model: llm.Gemma2, FactID: f.ID,
	})
	if w2.Header().Get("X-Trace-Id") != "" {
		t.Error("unsampled request unexpectedly traced")
	}
}

// TestMetricszExposition: /metricsz must parse under the package's own
// strict linter and expose every Stats counter plus the layer
// histograms.
func TestMetricszExposition(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		return stubOutcome(cell, f), nil
	}
	h := svc.Handler()
	f := firstFact(dataset.FactBench)
	postVerify(t, h, VerifyRequest{
		Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA),
		Model: llm.Gemma2, FactID: f.ID,
	})

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metricsz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metricsz: %d", w.Code)
	}
	body := w.Body.String()
	if err := obs.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition fails lint: %v", err)
	}
	for _, want := range []string{
		"factcheck_build_info{",
		"factcheck_requests_total ",
		"factcheck_rate_limited_total ",
		"factcheck_queue_rejected_total ",
		"factcheck_lru_hits_total ",
		"factcheck_store_hits_total ",
		"factcheck_computed_total ",
		"factcheck_coalesced_total ",
		"factcheck_cell_fills_total ",
		"factcheck_ingest_batches_total ",
		"factcheck_ingest_docs_total ",
		"factcheck_ingest_docs_applied_total ",
		"factcheck_ingest_rejected_total ",
		"factcheck_ingest_swept_total ",
		"factcheck_consensus_requests_total ",
		"factcheck_consensus_votes_dispatched_total ",
		"factcheck_consensus_votes_skipped_total ",
		"factcheck_consensus_escalations_total ",
		"factcheck_cache_len ",
		"factcheck_queue_cap ",
		"factcheck_retrieval_search_queries_total ",
		`factcheck_layer_latency_seconds_bucket{layer="lru",le=`,
		`factcheck_layer_latency_seconds_count{layer="verify"}`,
		`factcheck_endpoint_latency_seconds_count{endpoint="verify"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestStatsConsistencyUnderLoad hammers Stats() concurrently with
// consensus and ingest traffic and asserts the grouped counters are never
// observed half-applied: every scrape satisfies dispatched + skipped ==
// requests * len(voters). Run under -race this also exercises the
// snapshot path for data races.
func TestStatsConsistencyUnderLoad(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		return stubOutcome(cell, f), nil
	}
	voters := uint64(len(svc.voters))
	if voters == 0 {
		t.Skip("no voters in test benchmark")
	}
	facts := testBench().Datasets[dataset.FactBench].Facts

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				f := facts[(g*31+i)%len(facts)]
				if _, err := svc.Consensus(context.Background(), f.ID); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		st := svc.Stats()
		if got, want := st.ConsensusDispatched+st.ConsensusSkipped, st.ConsensusRequests*voters; got != want {
			t.Errorf("scrape %d: dispatched %d + skipped %d = %d, want requests %d * voters %d = %d",
				i, st.ConsensusDispatched, st.ConsensusSkipped, got, st.ConsensusRequests, voters, want)
			break
		}
		if st.IngestDocs < st.IngestBatches {
			t.Errorf("scrape %d: ingest docs %d < batches %d", i, st.IngestDocs, st.IngestBatches)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestWarmVerdictZeroAlloc: with tracing unsampled (the default), an
// LRU-hit verdict must not allocate — the instrumentation (histogram
// record, span probe) rides the warm path for free.
func TestWarmVerdictZeroAlloc(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		return stubOutcome(cell, f), nil
	}
	f := firstFact(dataset.FactBench)
	cell := core.Cell{Dataset: dataset.FactBench, Method: llm.MethodDKA, Model: llm.Gemma2}
	idx := testBench().FactIndex(dataset.FactBench)[f.ID]
	ctx := context.Background()
	if _, src, err := svc.verdict(ctx, cell, f, idx); err != nil || src != "computed" {
		t.Fatalf("prime: src=%q err=%v", src, err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		_, src, err := svc.verdict(ctx, cell, f, idx)
		if err != nil || src != "lru" {
			t.Fatalf("warm verdict: src=%q err=%v", src, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm verdict allocates %v per call, want 0", allocs)
	}
}

// BenchmarkWarmVerdict is the instrumented-path counterpart of the
// zero-alloc warm benches: an LRU-hit verdict with histograms recording
// and tracing at the default (off) sample rate. Allocations must stay 0.
func BenchmarkWarmVerdict(b *testing.B) {
	svc := New(testBench(), core.NewMemoryStore(), permissive())
	defer svc.Drain()
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		return stubOutcome(cell, f), nil
	}
	f := firstFact(dataset.FactBench)
	cell := core.Cell{Dataset: dataset.FactBench, Method: llm.MethodDKA, Model: llm.Gemma2}
	idx := testBench().FactIndex(dataset.FactBench)[f.ID]
	ctx := context.Background()
	if _, _, err := svc.verdict(ctx, cell, f, idx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, src, err := svc.verdict(ctx, cell, f, idx); err != nil || src != "lru" {
			b.Fatalf("src=%q err=%v", src, err)
		}
	}
}
