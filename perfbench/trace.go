package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/search"
	"factcheck/internal/strategy"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers. Times are offsets from the recorder's epoch.
type span struct {
	name   string
	trace  int64 // grid: task index; serving: request sequence number; -1: none
	parent int32 // index of the enclosing span, -1 for a root
	start  time.Duration
	end    time.Duration
}

// recorder keeps spans in memory for one traced run. Calls that carry no
// context (search.Searcher, search.PoolSource) link to their enclosing
// span through the fact ID: the evidence cache's singleflight admits one
// retrieval per fact at a time, so the innermost open span registered for
// a fact is the caller.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	byFact map[string][]int32

	// Model call counters, exact.
	generateCalls atomic.Int64
	promptTokens  atomic.Int64
	simLatency    atomic.Int64 // nanoseconds of simulated model time
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), byFact: map[string][]int32{}}
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// begin opens a span and returns its index.
func (r *recorder) begin(name string, trace int64, parent int32) int32 {
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, trace: trace, parent: parent, start: start})
	return int32(len(r.spans) - 1)
}

// finish closes the span at idx.
func (r *recorder) finish(idx int32) {
	end := r.now()
	r.mu.Lock()
	r.spans[idx].end = end
	r.mu.Unlock()
}

// reset drops every span and counter, e.g. those recorded during set-up.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.byFact = map[string][]int32{}
	r.mu.Unlock()
	r.epoch = time.Now()
	r.generateCalls.Store(0)
	r.promptTokens.Store(0)
	r.simLatency.Store(0)
}

// pushFact registers idx as the innermost open span working on factID.
func (r *recorder) pushFact(factID string, idx int32) {
	r.mu.Lock()
	r.byFact[factID] = append(r.byFact[factID], idx)
	r.mu.Unlock()
}

// popFact unregisters idx for factID.
func (r *recorder) popFact(factID string, idx int32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.byFact[factID]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == idx {
			st = append(st[:i], st[i+1:]...)
			break
		}
	}
	if len(st) == 0 {
		delete(r.byFact, factID)
	} else {
		r.byFact[factID] = st
	}
}

// factParent returns the innermost open span registered for factID and
// its trace ID, or (-1, -1).
func (r *recorder) factParent(factID string) (int32, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.byFact[factID]
	if len(st) == 0 {
		return -1, -1
	}
	p := st[len(st)-1]
	return p, r.spans[p].trace
}

// factSpan opens a span linked by fact ID and registers it for nested
// calls on the same fact; the returned function closes it.
func (r *recorder) factSpan(name, factID string) func() {
	parent, trace := r.factParent(factID)
	idx := r.begin(name, trace, parent)
	r.pushFact(factID, idx)
	return func() {
		r.popFact(factID, idx)
		r.finish(idx)
	}
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeTSV writes the spans out, one per line: trace, index, parent, name,
// start and end in nanoseconds from the epoch.
func (r *recorder) writeTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace\tspan\tparent\tname\tstart_ns\tend_ns")
	for i, s := range r.snapshot() {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.trace, i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the union of its children's intervals, clipped to the
// span. Children may overlap each other (concurrent votes, shared
// retrievals) and may nest; only direct children are subtracted, since
// grandchildren lie inside their own parents.
func selfTimes(spans []span) map[string]time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 && int(s.parent) < len(spans) {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.name] += s.end - s.start - covered(spans, children[i], s.start, s.end)
	}
	return out
}

// covered returns the length of the union of the given spans' intervals
// clipped to [lo, hi].
func covered(spans []span, idx []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].start, lo), min(spans[i].end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for k, v := range ivs {
		if k == 0 {
			cur = v
			continue
		}
		if v.a <= cur.b {
			cur.b = max(cur.b, v.b)
			continue
		}
		total += cur.b - cur.a
		cur = v
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// rootTime sums the durations of the root spans whose names satisfy keep.
func rootTime(spans []span, keep func(string) bool) time.Duration {
	var t time.Duration
	for _, s := range spans {
		if s.parent < 0 && keep(s.name) {
			t += s.end - s.start
		}
	}
	return t
}

// spanStats returns the count and total duration of spans named name.
func spanStats(spans []span, name string) (int, time.Duration) {
	var n int
	var d time.Duration
	for _, s := range spans {
		if s.name == name {
			n++
			d += s.end - s.start
		}
	}
	return n, d
}

// layerTiming is one Server-Timing entry.
type layerTiming struct {
	name string
	dur  time.Duration
}

// parseServerTiming splits a Server-Timing header value into its layers,
// dropping the "total" entry.
func parseServerTiming(h string) []layerTiming {
	var out []layerTiming
	for _, part := range strings.Split(h, ",") {
		name, rest, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok || name == "total" {
			continue
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			continue
		}
		out = append(out, layerTiming{name, time.Duration(v * float64(time.Millisecond))})
	}
	return out
}

// setAttribution prints the per-layer self-time split of the traced run's
// lane time (lanes x traced wall) and reports the unattributed share and
// the tracing overhead.
func setAttribution(rep *report, self map[string]time.Duration, lane, attributed, tracedWall, untracedWall time.Duration) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	var sum time.Duration
	for _, n := range names {
		sum += self[n]
		rep.note("self %-30s %10.4f s  %5.1f%%", n, self[n].Seconds(), 100*ratio(float64(self[n]), float64(lane)))
	}
	unattributed := lane - attributed
	rep.note("self %-30s %10.4f s  %5.1f%%", "(unattributed)", unattributed.Seconds(), 100*ratio(float64(unattributed), float64(lane)))
	rep.note("self total %.4f s = lane time %.4f s", (sum + unattributed).Seconds(), lane.Seconds())
	rep.set("trace.unattributed_ratio", ratio(float64(unattributed), float64(lane)), "ratio", 0, "")
	rep.set("trace.overhead_ratio", ratio(float64(tracedWall), float64(untracedWall))-1, "ratio", 0,
		fmt.Sprintf("traced %.3fs / untraced %.3fs - 1", tracedWall.Seconds(), untracedWall.Seconds()))
}

// --- wrappers around the program's public entry points --------------------

// spanCtx carries the enclosing span through calls that take a context.
type spanCtx struct{}

type spanRef struct {
	trace int64
	idx   int32
}

func withSpan(ctx context.Context, trace int64, idx int32) context.Context {
	return context.WithValue(ctx, spanCtx{}, spanRef{trace, idx})
}

func spanFrom(ctx context.Context) (int64, int32) {
	if ref, ok := ctx.Value(spanCtx{}).(spanRef); ok {
		return ref.trace, ref.idx
	}
	return -1, -1
}

// tracedPool times corpus materialisation; it is the search.PoolSource
// handed to search.NewEngine.
type tracedPool struct {
	src search.PoolSource
	rec *recorder
}

func (p tracedPool) Materialize(f *dataset.Fact) []corpus.Materialized {
	defer p.rec.factSpan("corpus.materialize", f.ID)()
	return p.src.Materialize(f)
}

// tracedSearcher times the engine's retrieval calls; it is the
// rag.Pipeline.Searcher. It forwards every optional interface rag
// type-asserts (search.Warmer, search.EvidenceFetcher): without them the
// pipeline would silently take its plain-fetch path and the traced run
// would measure a different program.
type tracedSearcher struct {
	eng *search.Engine
	rec *recorder
}

var (
	_ search.Searcher        = tracedSearcher{}
	_ search.Warmer          = tracedSearcher{}
	_ search.EvidenceFetcher = tracedSearcher{}
)

func (s tracedSearcher) Search(factID, query string, n int) ([]search.SERPItem, error) {
	defer s.rec.factSpan("search.search", factID)()
	return s.eng.Search(factID, query, n)
}

func (s tracedSearcher) Fetch(docID string) (search.DocPayload, error) {
	defer s.rec.factSpan("search.fetch", factOfDoc(docID))()
	return s.eng.Fetch(docID)
}

func (s tracedSearcher) Warm(factID string) error {
	defer s.rec.factSpan("search.warm", factID)()
	return s.eng.Warm(factID)
}

func (s tracedSearcher) FetchEvidence(docID string) (search.DocEvidence, error) {
	defer s.rec.factSpan("search.fetch_evidence", factOfDoc(docID))()
	return s.eng.FetchEvidence(docID)
}

// factOfDoc strips the "-dNNNN" suffix of a pool document ID.
func factOfDoc(docID string) string {
	if i := strings.LastIndex(docID, "-d"); i > 0 {
		return docID[:i]
	}
	return docID
}

// tracedModel times model calls and counts their tokens and simulated
// latency.
type tracedModel struct {
	llm.Model
	rec *recorder
}

func (m tracedModel) Generate(ctx context.Context, req llm.Request) (llm.Response, error) {
	trace, parent := spanFrom(ctx)
	idx := m.rec.begin("llm.generate", trace, parent)
	resp, err := m.Model.Generate(ctx, req)
	m.rec.finish(idx)
	m.rec.generateCalls.Add(1)
	m.rec.promptTokens.Add(int64(resp.Usage.PromptTokens))
	m.rec.simLatency.Add(int64(resp.Usage.Latency))
	return resp, err
}

// tracedVerifier times strategy.Verifier.Verify per method. A RAG verify
// registers itself for its fact, so a retrieval it leads links below it.
type tracedVerifier struct {
	strategy.Verifier
	rec *recorder
}

func (v tracedVerifier) Verify(ctx context.Context, m llm.Model, f *dataset.Fact) (strategy.Outcome, error) {
	trace, parent := spanFrom(ctx)
	idx := v.rec.begin("strategy.verify."+string(v.Method()), trace, parent)
	if v.Method() == llm.MethodRAG {
		v.rec.pushFact(f.ID, idx)
		defer v.rec.popFact(f.ID, idx)
	}
	defer v.rec.finish(idx)
	return v.Verifier.Verify(withSpan(ctx, trace, idx), m, f)
}

// tracedPrefetch times a RAG evidence prefetch as the rag retrieval span.
func tracedPrefetch(ctx context.Context, rec *recorder, p strategy.Prefetcher, f *dataset.Fact) error {
	trace, parent := spanFrom(ctx)
	idx := rec.begin("rag.retrieve", trace, parent)
	rec.pushFact(f.ID, idx)
	defer func() {
		rec.popFact(f.ID, idx)
		rec.finish(idx)
	}()
	return p.Prefetch(ctx, f)
}
