package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"factcheck/internal/consensus"
	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/strategy"
)

// testBench builds one small benchmark shared by every test in the package
// (the instance is immutable once built; each test gets its own Service
// and store).
var testBench = sync.OnceValue(func() *core.Benchmark {
	return core.NewBenchmark(core.TestConfig())
})

// permissive is a config that keeps the backpressure layers out of the way
// for tests that target other layers.
func permissive() Config {
	return Config{Rate: 1e9, Burst: 1e9, QueueDepth: 256, Workers: 4}
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	return New(testBench(), core.NewMemoryStore(), cfg)
}

func postVerify(t *testing.T, h http.Handler, req VerifyRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/v1/verify", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func firstFact(dn dataset.Name) *dataset.Fact {
	return testBench().Datasets[dn].Facts[0]
}

// stubOutcome fabricates a deterministic outcome for a (cell, fact) pair.
func stubOutcome(cell core.Cell, f *dataset.Fact) strategy.Outcome {
	return strategy.Outcome{
		FactID: f.ID, Model: cell.Model, Method: cell.Method,
		Verdict: strategy.True, Gold: f.Gold, Correct: f.Gold,
		Latency: 100 * time.Millisecond, Attempts: 1,
	}
}

// TestCoalescing: N concurrent identical requests must trigger exactly one
// verifier call, with every response identical.
func TestCoalescing(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	f := firstFact(dataset.FactBench)
	var calls atomic.Int32
	release := make(chan struct{})
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		calls.Add(1)
		<-release
		return stubOutcome(cell, f), nil
	}
	h := svc.Handler()
	req := VerifyRequest{Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA), Model: llm.Gemma2, FactID: f.ID}

	const n = 16
	var wg sync.WaitGroup
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postVerify(t, h, req)
			if w.Code != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, w.Code, w.Body.String())
				return
			}
			bodies[i] = w.Body.String()
		}(i)
	}
	// Let every request reach the singleflight layer while the leader's
	// verification is still pending, then release it.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("verifier called %d times for %d identical concurrent requests, want 1", got, n)
	}
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if st := svc.Stats(); st.Coalesced == 0 {
		t.Fatalf("coalesced counter = 0, want > 0 (stats %+v)", st)
	}
}

// TestCoalescedFollowerSurvivesLeaderCancel: when the singleflight
// leader's own request context dies mid-verification, a follower with a
// live context must retry (becoming the new leader) instead of inheriting
// the leader's context error as a 500.
func TestCoalescedFollowerSurvivesLeaderCancel(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	f := firstFact(dataset.FactBench)
	cell := core.Cell{Dataset: dataset.FactBench, Method: llm.MethodDKA, Model: llm.Gemma2}

	var calls atomic.Int32
	leaderIn := make(chan struct{})
	svc.verify = func(ctx context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		if calls.Add(1) == 1 {
			close(leaderIn)
			<-ctx.Done() // the leader's client disconnects
			return strategy.Outcome{}, ctx.Err()
		}
		return stubOutcome(cell, f), nil
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := svc.verdict(leaderCtx, cell, f, 0)
		leaderErr <- err
	}()
	<-leaderIn

	followerRes := make(chan error, 1)
	go func() {
		out, _, err := svc.verdict(context.Background(), cell, f, 0)
		if err == nil && out.FactID != f.ID {
			err = fmt.Errorf("wrong outcome %+v", out)
		}
		followerRes <- err
	}()
	// Give the follower time to join the in-flight call, then kill the
	// leader's request.
	time.Sleep(20 * time.Millisecond)
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	if err := <-followerRes; err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("verifier called %d times, want 2 (cancelled leader + retrying follower)", got)
	}
}

// TestQueueFullBackpressure: with one admission slot occupied, the next
// request is rejected immediately with 503 + Retry-After.
func TestQueueFullBackpressure(t *testing.T) {
	cfg := permissive()
	cfg.QueueDepth = 1
	cfg.Workers = 1
	svc := newTestService(t, cfg)
	defer svc.Drain()
	entered := make(chan struct{})
	release := make(chan struct{})
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		close(entered)
		<-release
		return stubOutcome(cell, f), nil
	}
	h := svc.Handler()
	f := firstFact(dataset.FactBench)
	req := VerifyRequest{Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA), Model: llm.Gemma2, FactID: f.ID}

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postVerify(t, h, req) }()
	<-entered // the only queue slot is now held

	w := postVerify(t, h, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d with full queue, want 503 (body %s)", w.Code, w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Fatal("503 response missing Retry-After header")
	}
	close(release)
	if w := <-done; w.Code != http.StatusOK {
		t.Fatalf("admitted request failed: %d %s", w.Code, w.Body.String())
	}
	if st := svc.Stats(); st.QueueRejected != 1 {
		t.Fatalf("queue_rejected = %d, want 1", st.QueueRejected)
	}
}

// TestRateLimit: a client that exhausts its burst gets 429 + Retry-After;
// an independent client is unaffected.
func TestRateLimit(t *testing.T) {
	cfg := permissive()
	cfg.Rate = 0.5
	cfg.Burst = 2
	svc := newTestService(t, cfg)
	defer svc.Drain()
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		return stubOutcome(cell, f), nil
	}
	h := svc.Handler()
	f := firstFact(dataset.FactBench)
	body, _ := json.Marshal(VerifyRequest{Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA), Model: llm.Gemma2, FactID: f.ID})

	do := func(client string) *httptest.ResponseRecorder {
		r := httptest.NewRequest("POST", "/v1/verify", bytes.NewReader(body))
		r.Header.Set("X-Client-ID", client)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}
	for i := 0; i < 2; i++ {
		if w := do("alice"); w.Code != http.StatusOK {
			t.Fatalf("request %d within burst: status %d", i, w.Code)
		}
	}
	w := do("alice")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d past burst, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After header")
	}
	if w := do("bob"); w.Code != http.StatusOK {
		t.Fatalf("independent client rate-limited: status %d", w.Code)
	}
	if st := svc.Stats(); st.RateLimited != 1 {
		t.Fatalf("rate_limited = %d, want 1", st.RateLimited)
	}
}

// TestBatchAndConsensusRateCharge: the token bucket charges per
// verification, so a k-item batch (or k-model consensus) costs k tokens —
// batching must not multiply a client's effective rate.
func TestBatchAndConsensusRateCharge(t *testing.T) {
	cfg := permissive()
	cfg.Rate = 0.001 // effectively no refill within the test
	cfg.Burst = 4
	svc := newTestService(t, cfg)
	defer svc.Drain()
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		return stubOutcome(cell, f), nil
	}
	h := svc.Handler()
	f := firstFact(dataset.FactBench)
	one := VerifyRequest{Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA), Model: llm.Gemma2, FactID: f.ID}

	do := func(client, path string, v any) *httptest.ResponseRecorder {
		body, _ := json.Marshal(v)
		r := httptest.NewRequest("POST", path, bytes.NewReader(body))
		r.Header.Set("X-Client-ID", client)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}
	// Batch of 3 costs 3 of alice's 4 tokens, one single costs the 4th,
	// the next single is throttled.
	if w := do("alice", "/v1/verify/batch", BatchRequest{Requests: []VerifyRequest{one, one, one}}); w.Code != http.StatusOK {
		t.Fatalf("batch within burst: %d %s", w.Code, w.Body.String())
	}
	if w := do("alice", "/v1/verify", one); w.Code != http.StatusOK {
		t.Fatalf("single on last token: %d", w.Code)
	}
	if w := do("alice", "/v1/verify", one); w.Code != http.StatusTooManyRequests {
		t.Fatalf("single past burst: %d, want 429", w.Code)
	}

	// A batch larger than the burst can never be served: 400, not an
	// eternal 429.
	big := BatchRequest{Requests: []VerifyRequest{one, one, one, one, one}}
	w := do("bob", "/v1/verify/batch", big)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "burst capacity") {
		t.Fatalf("burst-exceeding batch: %d %s, want 400 burst-capacity error", w.Code, w.Body.String())
	}

	// Consensus fans out to the 4 open-source models: exactly carol's
	// burst, so one succeeds and the second is throttled.
	get := func(client string) *httptest.ResponseRecorder {
		r := httptest.NewRequest("GET", "/v1/consensus/"+f.ID, nil)
		r.Header.Set("X-Client-ID", client)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}
	if w := get("carol"); w.Code != http.StatusOK {
		t.Fatalf("consensus within burst: %d %s", w.Code, w.Body.String())
	}
	if w := get("carol"); w.Code != http.StatusTooManyRequests {
		t.Fatalf("second consensus: %d, want 429", w.Code)
	}
}

// TestDrainCompletesInFlight: Drain must wait for a verification already
// picked up by the executor, and for background cell fills, before
// returning.
func TestDrainCompletesInFlight(t *testing.T) {
	cfg := permissive()
	svc := newTestService(t, cfg)
	entered := make(chan struct{})
	release := make(chan struct{})
	var finished atomic.Bool
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		close(entered)
		<-release
		finished.Store(true)
		return stubOutcome(cell, f), nil
	}
	f := firstFact(dataset.FactBench)
	cell := core.Cell{Dataset: dataset.FactBench, Method: llm.MethodDKA, Model: llm.Gemma2}
	resErr := make(chan error, 1)
	go func() {
		_, _, err := svc.verdict(context.Background(), cell, f, 0)
		resErr <- err
	}()
	<-entered
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	svc.Drain()
	if !finished.Load() {
		t.Fatal("Drain returned before the in-flight verification finished")
	}
	if err := <-resErr; err != nil {
		t.Fatalf("in-flight verification failed during drain: %v", err)
	}
}

// TestFillPersistsCell: one on-demand verdict triggers a whole-cell fill
// that persists the snapshot; Drain waits for it.
func TestFillPersistsCell(t *testing.T) {
	cfg := permissive()
	cfg.FillCells = true
	store := core.NewMemoryStore()
	svc := New(testBench(), store, cfg)
	var calls atomic.Int32
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		calls.Add(1)
		return stubOutcome(cell, f), nil
	}
	f := firstFact(dataset.FactBench)
	req := VerifyRequest{Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA), Model: llm.Gemma2, FactID: f.ID}
	if w := postVerify(t, svc.Handler(), req); w.Code != http.StatusOK {
		t.Fatalf("verify: %d %s", w.Code, w.Body.String())
	}
	svc.filler.Wait() // let the scheduled fill run (Drain would discard a queued one)
	svc.Drain()
	if store.Len() != 1 {
		t.Fatalf("store has %d cells after fill, want 1", store.Len())
	}
	nFacts := len(testBench().Datasets[dataset.FactBench].Facts)
	// The fill reuses the one verdict already in the LRU.
	if got := int(calls.Load()); got != nFacts {
		t.Fatalf("verifier called %d times, want %d (cell size, initial verdict reused)", got, nFacts)
	}
	if st := svc.Stats(); st.CellFills != 1 {
		t.Fatalf("cell_fills = %d, want 1", st.CellFills)
	}
}

// TestVerifyGolden: POST /v1/verify responses must be byte-identical to
// the corresponding grid-cell outcome from RunCell, for every fact of the
// cell — and identical again when served from a store snapshot or the LRU
// (only the source field may differ).
func TestVerifyGolden(t *testing.T) {
	b := testBench()
	cell := core.Cell{Dataset: dataset.FactBench, Method: llm.MethodDKA, Model: llm.Gemma2}
	outs, err := b.RunCell(context.Background(), cell.Dataset, cell.Method, cell.Model)
	if err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, permissive())
	defer svc.Drain()
	h := svc.Handler()
	facts := b.Datasets[cell.Dataset].Facts

	encode := func(v any) string {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for i, f := range facts {
		req := VerifyRequest{Dataset: string(cell.Dataset), Method: string(cell.Method), Model: cell.Model, FactID: f.ID}
		w := postVerify(t, h, req)
		if w.Code != http.StatusOK {
			t.Fatalf("fact %s: status %d: %s", f.ID, w.Code, w.Body.String())
		}
		want := encode(verdictResponse(cell, outs[i], "computed"))
		if got := w.Body.String(); got != want {
			t.Fatalf("fact %s: served verdict differs from RunCell outcome:\ngot  %swant %s", f.ID, got, want)
		}
		// Second request: LRU hit, byte-identical modulo source.
		w2 := postVerify(t, h, req)
		want2 := encode(verdictResponse(cell, outs[i], "lru"))
		if got := w2.Body.String(); got != want2 {
			t.Fatalf("fact %s: LRU verdict differs:\ngot  %swant %s", f.ID, got, want2)
		}
	}

	// A store-warm service serves the same bytes from the snapshot.
	store := core.NewMemoryStore()
	if err := store.Put(b.CellKey(cell).Fingerprint(), outs); err != nil {
		t.Fatal(err)
	}
	warm := New(b, store, permissive())
	defer warm.Drain()
	wh := warm.Handler()
	for i, f := range facts {
		path := fmt.Sprintf("/v1/verdict/%s/%s/%s/%s", cell.Dataset, cell.Method, cell.Model, f.ID)
		w := httptest.NewRecorder()
		wh.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, w.Code, w.Body.String())
		}
		// The first store hit hydrates the whole cell into the LRU, so
		// later facts answer from it; the bytes must match either way.
		source := "lru"
		if i == 0 {
			source = "store"
		}
		want := encode(verdictResponse(cell, outs[i], source))
		if got := w.Body.String(); got != want {
			t.Fatalf("fact %s: store verdict differs:\ngot  %swant %s", f.ID, got, want)
		}
	}
}

// TestVerdictLookupDoesNotCompute: GET /v1/verdict on a cold service is a
// 404, never a verification.
func TestVerdictLookupDoesNotCompute(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	var calls atomic.Int32
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		calls.Add(1)
		return stubOutcome(cell, f), nil
	}
	f := firstFact(dataset.FactBench)
	path := fmt.Sprintf("/v1/verdict/%s/%s/%s/%s", dataset.FactBench, llm.MethodDKA, llm.Gemma2, f.ID)
	w := httptest.NewRecorder()
	svc.Handler().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d on cold lookup, want 404", w.Code)
	}
	if calls.Load() != 0 {
		t.Fatal("read-only verdict lookup triggered a verification")
	}
}

// TestBatch covers the batch endpoint: mixed valid/invalid items, order
// preservation, and the size cap.
func TestBatch(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		return stubOutcome(cell, f), nil
	}
	h := svc.Handler()
	f := firstFact(dataset.FactBench)
	g := firstFact(dataset.YAGO)

	post := func(v any) *httptest.ResponseRecorder {
		body, _ := json.Marshal(v)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/verify/batch", bytes.NewReader(body)))
		return w
	}
	w := post(BatchRequest{Requests: []VerifyRequest{
		{Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA), Model: llm.Gemma2, FactID: f.ID},
		{Dataset: "Nope", Method: string(llm.MethodDKA), Model: llm.Gemma2, FactID: f.ID},
		{Dataset: string(dataset.YAGO), Method: string(llm.MethodGIVZ), Model: llm.Qwen25, FactID: g.ID},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Verdict == nil || resp.Results[0].Verdict.FactID != f.ID {
		t.Fatalf("result 0 = %+v, want verdict for %s", resp.Results[0], f.ID)
	}
	if resp.Results[1].Error == "" || !strings.Contains(resp.Results[1].Error, "unknown dataset") {
		t.Fatalf("result 1 error = %q, want unknown-dataset error", resp.Results[1].Error)
	}
	if resp.Results[2].Verdict == nil || resp.Results[2].Verdict.Method != string(llm.MethodGIVZ) {
		t.Fatalf("result 2 = %+v, want GIV-Z verdict", resp.Results[2])
	}

	if w := post(BatchRequest{}); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", w.Code)
	}
	big := BatchRequest{Requests: make([]VerifyRequest, 65)}
	if w := post(big); w.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", w.Code)
	}
}

// getConsensus issues GET /v1/consensus/{fact} and decodes the response.
func getConsensus(t *testing.T, h http.Handler, factID string) (*ConsensusResponse, *httptest.ResponseRecorder) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/consensus/"+factID, nil))
	if w.Code != http.StatusOK {
		return nil, w
	}
	var resp ConsensusResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return &resp, w
}

// openVerdicts returns each open-source voter's RunCell DKA verdict on
// every fact of dn, keyed by fact ID then model.
func openVerdicts(t *testing.T, b *core.Benchmark, dn dataset.Name) map[string]map[string]strategy.Verdict {
	t.Helper()
	byFact := map[string]map[string]strategy.Verdict{}
	for _, model := range b.Config.Models {
		if model == llm.GPT4oMini {
			continue
		}
		outs, err := b.RunCell(context.Background(), dn, llm.MethodDKA, model)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			if byFact[o.FactID] == nil {
				byFact[o.FactID] = map[string]strategy.Verdict{}
			}
			byFact[o.FactID][model] = o.Verdict
		}
	}
	return byFact
}

// majorityOf is consensus.Majority over one fact's voter verdicts.
func majorityOf(verdicts map[string]strategy.Verdict) (final, tie bool) {
	var votes []consensus.Vote
	for model, v := range verdicts {
		votes = append(votes, consensus.Vote{Model: model, Verdict: v})
	}
	return consensus.Majority(votes)
}

// TestConsensusEndpoint: the served verdict must match consensus.Majority
// over the open-source models' RunCell verdicts, with each vote attributed
// to the model that cast it, the votes a plan-order prefix and the skip set
// the plan tail.
func TestConsensusEndpoint(t *testing.T) {
	f := firstFact(dataset.FactBench)
	want := openVerdicts(t, testBench(), dataset.FactBench)[f.ID]
	wantFinal, wantTie := majorityOf(want)

	svc := newTestService(t, permissive())
	defer svc.Drain()
	planOrder := svc.plan.Order

	resp, w := getConsensus(t, svc.Handler(), f.ID)
	if resp == nil {
		t.Fatalf("%d %s", w.Code, w.Body.String())
	}
	if resp.Mode != "adaptive" {
		t.Fatalf("mode tag %q, want adaptive", resp.Mode)
	}
	if resp.Final != wantFinal || resp.Tie != wantTie {
		t.Fatalf("final=%v tie=%v, want final=%v tie=%v", resp.Final, resp.Tie, wantFinal, wantTie)
	}
	// Every vote is the model's own RunCell verdict, in plan order.
	for i, v := range resp.Votes {
		if v.Model != planOrder[i] {
			t.Fatalf("vote %d from %s, want plan order %v", i, v.Model, planOrder)
		}
		if v.Verdict != want[v.Model].String() {
			t.Fatalf("vote %s = %s, want %s", v.Model, v.Verdict, want[v.Model])
		}
	}
	// Votes + Skipped partition the plan exactly.
	if tail := planOrder[len(resp.Votes):]; !slices.Equal(resp.Skipped, tail) {
		t.Fatalf("skipped %v not the plan tail %v", resp.Skipped, tail)
	}
}

// TestConsensusMatchesMajority is the serving-layer differential gate: for
// every fact of every dataset the served Final and Tie equal
// consensus.Majority over all four voters' RunCell verdicts, and every
// unanimous fact skips voters.
func TestConsensusMatchesMajority(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	ctx := context.Background()

	unanimous, skippedFacts, facts := 0, 0, 0
	for _, dn := range testBench().Config.Datasets {
		verdicts := openVerdicts(t, testBench(), dn)
		for _, f := range testBench().Datasets[dn].Facts {
			facts++
			wantFinal, wantTie := majorityOf(verdicts[f.ID])
			got, err := svc.Consensus(ctx, f.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got.Final != wantFinal || got.Tie != wantTie {
				t.Fatalf("%s: served (final %v tie %v) != majority over every voter (final %v tie %v)",
					f.ID, got.Final, got.Tie, wantFinal, wantTie)
			}
			if len(got.Skipped) > 0 {
				skippedFacts++
			}
			trues := 0
			for _, v := range verdicts[f.ID] {
				if v.Bool() {
					trues++
				}
			}
			if trues == 0 || trues == len(verdicts[f.ID]) {
				unanimous++
				if len(got.Skipped) == 0 {
					t.Fatalf("%s: unanimous fact skipped no voter", f.ID)
				}
			}
		}
	}
	if unanimous == 0 {
		t.Fatal("no unanimous facts; the differential gate is vacuous")
	}
	t.Logf("%d facts: %d unanimous, %d with skipped votes", facts, unanimous, skippedFacts)
}

// TestConsensusCoalesces: N concurrent adaptive consensus requests for the
// same fact must coalesce per (cell, fact) — the quorum models are each
// verified exactly once, and the escalation voter not at all when the
// quorum is unanimous. Run under -race this also exercises the engine's
// fan-out goroutines against the singleflight layer.
func TestConsensusCoalesces(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	f := firstFact(dataset.FactBench)

	var mu sync.Mutex
	calls := map[string]int{}
	release := make(chan struct{})
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		mu.Lock()
		calls[cell.Model]++
		mu.Unlock()
		<-release
		return stubOutcome(cell, f), nil // every model votes true: unanimous quorum
	}
	h := svc.Handler()

	const n = 8
	var wg sync.WaitGroup
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/consensus/"+f.ID, nil))
			if w.Code != http.StatusOK {
				t.Errorf("request %d: %d %s", i, w.Code, w.Body.String())
				return
			}
			bodies[i] = w.Body.String()
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	quorum := svc.plan.Tiers[0]
	escalation := svc.plan.Order[len(quorum):]
	mu.Lock()
	defer mu.Unlock()
	for _, m := range quorum {
		if calls[m] != 1 {
			t.Errorf("quorum model %s verified %d times across %d concurrent requests, want 1", m, calls[m], n)
		}
	}
	for _, m := range escalation {
		if calls[m] != 0 {
			t.Errorf("escalation model %s verified %d times on a unanimous quorum, want 0", m, calls[m])
		}
	}
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
}

// TestConsensusSkipSetParallelismInvariant: the adaptive skip set (and the
// whole response) must be byte-identical whether the service runs its
// executor with 1 worker or 8 — decisions are taken at tier boundaries
// only, never on dispatch-completion order.
func TestConsensusSkipSetParallelismInvariant(t *testing.T) {
	responses := func(workers int) []string {
		cfg := permissive()
		cfg.Workers = workers
		svc := newTestService(t, cfg)
		defer svc.Drain()
		h := svc.Handler()
		var out []string
		for _, dn := range testBench().Config.Datasets {
			for _, f := range testBench().Datasets[dn].Facts {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/consensus/"+f.ID, nil))
				if w.Code != http.StatusOK {
					t.Fatalf("%s: %d %s", f.ID, w.Code, w.Body.String())
				}
				out = append(out, w.Body.String())
			}
		}
		return out
	}
	par1 := responses(1)
	par8 := responses(8)
	for i := range par1 {
		if par1[i] != par8[i] {
			t.Fatalf("response %d differs between 1 and 8 workers:\n%s\nvs\n%s", i, par1[i], par8[i])
		}
	}
}

// TestConsensusNoVotersRejectedBeforeCharge: a service whose model set has
// no open-source voters answers 422 before debiting any rate-limit token
// beyond the admission charge — the failed consensus request must not eat
// into the client's budget for requests the server can serve.
func TestConsensusNoVotersRejectedBeforeCharge(t *testing.T) {
	cfg := core.TestConfig()
	cfg.Models = []string{llm.GPT4oMini} // arbiter-only: no voters
	b := core.NewBenchmark(cfg)
	scfg := permissive()
	scfg.Rate = 0.001
	scfg.Burst = 2
	svc := New(b, core.NewMemoryStore(), scfg)
	defer svc.Drain()
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		return stubOutcome(cell, f), nil
	}
	h := svc.Handler()
	f := b.Datasets[dataset.FactBench].Facts[0]

	w := httptest.NewRecorder()
	r := httptest.NewRequest("GET", "/v1/consensus/"+f.ID, nil)
	r.Header.Set("X-Client-ID", "dave")
	h.ServeHTTP(w, r)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("voterless consensus: %d %s, want 422", w.Code, w.Body.String())
	}
	// Only the admission token was spent: a second request still fits the
	// burst of 2. Had handleConsensus charged before validating, the
	// client would be throttled here.
	req := VerifyRequest{Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA), Model: llm.GPT4oMini, FactID: f.ID}
	body, _ := json.Marshal(req)
	w = httptest.NewRecorder()
	r = httptest.NewRequest("POST", "/v1/verify", bytes.NewReader(body))
	r.Header.Set("X-Client-ID", "dave")
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("verify after failed consensus: %d %s, want 200 (token not double-charged)", w.Code, w.Body.String())
	}
}

// TestConsensusStatszCounters: the Stats consensus counters must account
// for exactly the votes the planner dispatched, skipped and escalated.
func TestConsensusStatszCounters(t *testing.T) {
	verdicts := map[string]strategy.Verdict{}
	svc := newTestService(t, permissive())
	defer svc.Drain()
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		out := stubOutcome(cell, f)
		out.Verdict = verdicts[cell.Model]
		return out, nil
	}
	h := svc.Handler()

	// A unanimous quorum: 3 dispatched, 1 skipped, no escalation.
	for _, m := range svc.plan.Order {
		verdicts[m] = strategy.True
	}
	f := firstFact(dataset.FactBench)
	if resp, w := getConsensus(t, h, f.ID); resp == nil {
		t.Fatalf("consensus: %d %s", w.Code, w.Body.String())
	}
	st := svc.Stats()
	if st.ConsensusRequests != 1 || st.ConsensusDispatched != 3 || st.ConsensusSkipped != 1 || st.ConsensusEscalations != 0 {
		t.Fatalf("after unanimous quorum: %+v, want 1 request, 3 dispatched, 1 skipped, 0 escalations", st)
	}

	// A split quorum on a second fact: all 4 dispatched, one escalation.
	quorum := svc.plan.Tiers[0]
	verdicts[quorum[0]] = strategy.True
	verdicts[quorum[1]] = strategy.False
	verdicts[quorum[2]] = strategy.False
	verdicts[svc.plan.Order[3]] = strategy.False
	g := testBench().Datasets[dataset.FactBench].Facts[1]
	resp, w := getConsensus(t, h, g.ID)
	if resp == nil {
		t.Fatalf("consensus: %d %s", w.Code, w.Body.String())
	}
	if resp.Final || resp.Tie {
		t.Fatalf("split quorum decision = %+v, want 1-3 false", resp)
	}
	st = svc.Stats()
	if st.ConsensusRequests != 2 || st.ConsensusDispatched != 7 || st.ConsensusSkipped != 1 || st.ConsensusEscalations != 1 {
		t.Fatalf("after split quorum: %+v, want 2 requests, 7 dispatched, 1 skipped, 1 escalation", st)
	}
}

// TestValidation maps bad coordinates to the documented statuses.
func TestValidation(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	h := svc.Handler()
	f := firstFact(dataset.FactBench)
	ok := VerifyRequest{Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA), Model: llm.Gemma2, FactID: f.ID}

	cases := []struct {
		name   string
		mutate func(*VerifyRequest)
		status int
	}{
		{"unknown dataset", func(r *VerifyRequest) { r.Dataset = "Nope" }, http.StatusNotFound},
		{"unknown method", func(r *VerifyRequest) { r.Method = "ESP" }, http.StatusBadRequest},
		{"unknown model", func(r *VerifyRequest) { r.Model = "gpt-17" }, http.StatusNotFound},
		{"unknown fact", func(r *VerifyRequest) { r.FactID = "fb-nope" }, http.StatusNotFound},
		{"fact of other dataset", func(r *VerifyRequest) { r.FactID = firstFact(dataset.YAGO).ID }, http.StatusNotFound},
	}
	for _, tc := range cases {
		req := ok
		tc.mutate(&req)
		if w := postVerify(t, h, req); w.Code != tc.status {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, w.Code, tc.status, w.Body.String())
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/verify", strings.NewReader("{nope")))
	if w.Code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", w.Code)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/consensus/fb-nope", nil))
	if w.Code != http.StatusNotFound {
		t.Errorf("consensus unknown fact: status %d, want 404", w.Code)
	}
}

// TestFactsAndStats smoke-tests the unthrottled endpoints and the Stats
// snapshot; the retired /statsz route must answer 404.
func TestFactsAndStats(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	h := svc.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/facts", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("facts: %d", w.Code)
	}
	var facts struct {
		Datasets map[string][]string `json:"datasets"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &facts); err != nil {
		t.Fatal(err)
	}
	for _, dn := range testBench().Config.Datasets {
		if len(facts.Datasets[string(dn)]) != len(testBench().Datasets[dn].Facts) {
			t.Fatalf("facts for %s: %d IDs, want %d", dn, len(facts.Datasets[string(dn)]), len(testBench().Datasets[dn].Facts))
		}
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/statsz", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("statsz: %d, want 404 (/metricsz is the only stats surface)", w.Code)
	}
	if st := svc.Stats(); st.QueueCap != 256 {
		t.Fatalf("queue_cap = %d, want 256", st.QueueCap)
	}
}

// TestStatszRetrievalCounters: a real (unstubbed) RAG verification performs
// retrieval, so the engine's cumulative top-k work counters surfaced under
// Stats.Retrieval must move. The bench engine is shared across tests, so
// assert on deltas.
func TestStatszRetrievalCounters(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	h := svc.Handler()

	before := svc.Stats()
	f := firstFact(dataset.FactBench)
	// The bench's evidence cache is shared across tests and repeats: drop
	// the fact's entry so this verify always retrieves.
	testBench().Pipeline.Invalidate(f.ID)
	req := VerifyRequest{Dataset: string(dataset.FactBench), Method: string(llm.MethodRAG), Model: llm.Gemma2, FactID: f.ID}
	if w := postVerify(t, h, req); w.Code != http.StatusOK {
		t.Fatalf("verify: %d: %s", w.Code, w.Body.String())
	}
	after := svc.Stats()

	if after.Retrieval.SearchQueries <= before.Retrieval.SearchQueries {
		t.Errorf("search_queries did not move: %d -> %d",
			before.Retrieval.SearchQueries, after.Retrieval.SearchQueries)
	}
	if after.Retrieval.PostingsTouched <= before.Retrieval.PostingsTouched {
		t.Errorf("postings_touched did not move: %d -> %d",
			before.Retrieval.PostingsTouched, after.Retrieval.PostingsTouched)
	}
	if after.Retrieval.DocsScored <= before.Retrieval.DocsScored {
		t.Errorf("docs_scored did not move: %d -> %d",
			before.Retrieval.DocsScored, after.Retrieval.DocsScored)
	}
}

// TestBodySizeLimit: a request body past maxBodyBytes is rejected with 413
// before any of it is processed.
func TestBodySizeLimit(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	h := svc.Handler()
	huge := `{"dataset":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, path := range []string{"/v1/verify", "/v1/verify/batch"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(huge)))
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d-byte body: status %d, want 413", path, len(huge), w.Code)
		}
	}
}

// TestRunServer: the shared daemon scaffold serves until the context dies,
// then drains and runs the app hook.
func TestRunServer(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	srv := &http.Server{Addr: "127.0.0.1:0", Handler: http.NewServeMux()}
	drained := false
	var log bytes.Buffer
	done := make(chan error, 1)
	started := false
	go func() {
		done <- RunServer(ctx, srv, "testd", &log, func() { started = true }, func() { drained = true })
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("RunServer: %v", err)
	}
	if !started {
		t.Fatal("drain-start hook not called")
	}
	if !drained {
		t.Fatal("drain hook not called")
	}
	for _, want := range []string{"testd: serving on", "testd: draining...", "testd: drained"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("log missing %q: %q", want, log.String())
		}
	}
}

// TestRunServerListenError: a bind failure is reported, not swallowed.
func TestRunServerListenError(t *testing.T) {
	srv := &http.Server{Addr: "256.0.0.1:-1", Handler: http.NewServeMux()}
	if err := RunServer(context.Background(), srv, "testd", io.Discard, nil, nil); err == nil {
		t.Fatal("RunServer succeeded with an unbindable address")
	}
}

// --- limiter unit tests --------------------------------------------------

func TestLimiterBurstAndRefill(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	l := newLimiter(1, 2, clock) // 1 token/s, burst 2
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("c"); !ok {
			t.Fatalf("request %d within burst rejected", i)
		}
	}
	ok, wait := l.allow("c")
	if ok {
		t.Fatal("request past burst allowed")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("retry-after = %v, want (0, 1s]", wait)
	}
	now = now.Add(time.Second)
	if ok, _ := l.allow("c"); !ok {
		t.Fatal("request after refill rejected")
	}
	if ok, _ := l.allow("other"); !ok {
		t.Fatal("fresh client rejected")
	}
}

func TestLimiterPrune(t *testing.T) {
	now := time.Unix(0, 0)
	l := newLimiter(1, 2, func() time.Time { return now })
	for i := 0; i < 10; i++ {
		l.allow(fmt.Sprintf("c%d", i))
	}
	if got := l.clients(); got != 10 {
		t.Fatalf("clients = %d, want 10", got)
	}
	// After a full refill interval every bucket is forgettable.
	l.mu.Lock()
	l.prune(now.Add(2 * time.Second))
	l.mu.Unlock()
	if got := l.clients(); got != 0 {
		t.Fatalf("clients after prune = %d, want 0", got)
	}
}

// TestLimiterBounded: a client-ID churn attack must not grow the table
// past maxClients, even when no bucket is idle enough to prune.
func TestLimiterBounded(t *testing.T) {
	now := time.Unix(0, 0)
	l := newLimiter(1, 2, func() time.Time { return now })
	for i := 0; i < maxClients+50; i++ {
		l.allow(fmt.Sprintf("churn-%d", i))
	}
	if got := l.clients(); got > maxClients {
		t.Fatalf("clients = %d, want <= %d", got, maxClients)
	}
}

// --- cache unit tests ----------------------------------------------------

func cacheKey(fact string) verdictKey {
	return verdictKey{
		cell:   core.Cell{Dataset: dataset.FactBench, Method: llm.MethodDKA, Model: llm.Gemma2},
		factID: fact,
	}
}

func TestCachePutGetUpdate(t *testing.T) {
	c := newVerdictCache(64)
	k := cacheKey("f1")
	if _, ok := c.get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(k, strategy.Outcome{FactID: "f1", Attempts: 1})
	out, ok := c.get(k)
	if !ok || out.Attempts != 1 {
		t.Fatalf("get = %+v, %v", out, ok)
	}
	c.put(k, strategy.Outcome{FactID: "f1", Attempts: 2})
	if out, _ := c.get(k); out.Attempts != 2 {
		t.Fatalf("update lost: %+v", out)
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Capacity == shard count -> one entry per shard; two same-shard keys
	// evict the older one.
	c := newVerdictCache(cacheShards)
	k1 := cacheKey("f-0")
	var k2 verdictKey
	found := false
	for i := 1; i < 4096; i++ {
		k := cacheKey(fmt.Sprintf("f-%d", i))
		if k.shard() == k1.shard() {
			k2, found = k, true
			break
		}
	}
	if !found {
		t.Fatal("no same-shard key found")
	}
	c.put(k1, strategy.Outcome{FactID: k1.factID})
	c.put(k2, strategy.Outcome{FactID: k2.factID})
	if _, ok := c.get(k1); ok {
		t.Fatal("oldest entry not evicted at capacity")
	}
	if _, ok := c.get(k2); !ok {
		t.Fatal("newest entry evicted")
	}
}
