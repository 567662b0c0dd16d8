// Package rag implements the paper's four-phase retrieval pipeline (§3.2):
// (1) triple transformation, (2) question generation and ranking, (3)
// document retrieval and filtering, and (4) document processing and
// chunking. The pipeline is backed by any search.Searcher (the in-process
// engine or the HTTP mock API) and mirrors the configuration of the paper's
// Table 4.
package rag

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"factcheck/internal/chunk"
	"factcheck/internal/dataset"
	"factcheck/internal/det"
	"factcheck/internal/obs"
	"factcheck/internal/question"
	"factcheck/internal/rerank"
	"factcheck/internal/search"
	"factcheck/internal/text"
	"factcheck/internal/verbalize"
)

// Phase latency histograms, resolved once so the retrieval path records
// with a single atomic add. These measure real wall-clock work (the
// simulated Evidence.Latency is separate and untouched).
var (
	questionsHist = obs.Layer("rag_questions")
	searchHist    = obs.Layer("rag_search")
	rerankHist    = obs.Layer("rag_rerank")
	chunkHist     = obs.Layer("rag_chunk")
)

// phaseSpan opens a trace span and times the phase into its histogram.
func phaseSpan(ctx context.Context, name string, h *obs.Histogram) func() {
	_, end := obs.StartSpan(ctx, name)
	start := time.Now()
	return func() {
		h.Observe(time.Since(start))
		end()
	}
}

// Config mirrors the paper's Table 4 RAG parameters.
type Config struct {
	// NumQuestions generated per fact (k_q).
	NumQuestions int
	// Tau is the question relevance threshold (τ = 0.5).
	Tau float64
	// SelectedQuestions is the number of top questions issued as queries
	// (paper: 3, plus the transformed triple itself).
	SelectedQuestions int
	// SERPSize is results per query (n_max = 100).
	SERPSize int
	// SelectedDocs is k_d, the documents kept after reranking (10).
	SelectedDocs int
	// Window is the sliding-window chunk size in sentences (3).
	Window int
	// MaxChunks caps the chunks passed to the model prompt.
	MaxChunks int
	// CandidateCap bounds how many unique documents are fetched and
	// reranked per fact, keeping full-benchmark runs tractable.
	CandidateCap int
	// FilterSKG enables dropping documents from the KG's own source pages
	// (circular-verification filter). On by default; the ablation bench
	// turns it off.
	FilterSKG bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		NumQuestions:      question.DefaultK,
		Tau:               0.5,
		SelectedQuestions: 3,
		SERPSize:          search.DefaultSERPSize,
		SelectedDocs:      10,
		Window:            chunk.DefaultWindow,
		MaxChunks:         20,
		CandidateCap:      120,
		FilterSKG:         true,
	}
}

// Pipeline executes retrieval for facts. Retrieval is model-independent and
// deterministic, so results are cached per fact: when several models verify
// the same fact (Table 5's five columns, consensus ensembles) the pipeline
// retrieves once. The cache is sharded by fact ID and deduplicates
// concurrent retrievals (singleflight), so the whole-grid scheduler can fan
// N models out over the same fact and still trigger exactly one retrieval.
// Call ClearCache after changing Config.
type Pipeline struct {
	Searcher search.Searcher
	Config   Config

	// questionRanker and docRanker are the paper's two cross-encoders
	// (Table 4), set by New.
	questionRanker *rerank.CrossEncoder
	docRanker      *rerank.CrossEncoder
	cache          evidenceCache
}

// evidenceShards is the shard count of the evidence cache. Sharding keeps
// lock hold times per shard short under concurrent grid workers; the count
// comfortably exceeds any realistic worker parallelism.
const evidenceShards = 32

// evidenceCache is a sharded fact-ID-keyed cache with singleflight
// semantics: the first caller for a fact owns the retrieval, concurrent
// callers block on the entry's done channel and share the result.
type evidenceCache struct {
	shards [evidenceShards]evidenceShard
}

type evidenceShard struct {
	mu      sync.Mutex
	entries map[string]*evidenceEntry
}

// evidenceEntry is one in-flight or completed retrieval. ev and err are
// written once by the owner before done is closed; waiters read them only
// after <-done.
type evidenceEntry struct {
	done chan struct{}
	ev   *Evidence
	err  error
}

// shard maps a fact ID to its cache shard.
func (c *evidenceCache) shard(id string) *evidenceShard {
	return &c.shards[det.Hash64("rag-shard", id)%evidenceShards]
}

// invalidate drops one fact's entry. An in-flight retrieval keeps its
// (now unreachable) entry and completes harmlessly: only callers already
// waiting on it observe the pre-invalidation evidence.
func (c *evidenceCache) invalidate(factID string) {
	s := c.shard(factID)
	s.mu.Lock()
	delete(s.entries, factID)
	s.mu.Unlock()
}

// clear drops every shard's entries. In-flight retrievals keep their
// (now unreachable) entry and complete harmlessly.
func (c *evidenceCache) clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = nil
		s.mu.Unlock()
	}
}

// New builds a pipeline with the paper's default rankers and configuration.
func New(s search.Searcher) *Pipeline {
	return &Pipeline{
		Searcher:       s,
		Config:         DefaultConfig(),
		questionRanker: rerank.NewQuestionRanker(),
		docRanker:      rerank.NewDocumentRanker(),
	}
}

// Evidence is the retrieval result for one fact.
type Evidence struct {
	// Sentence is the verbalised fact (phase 1 output).
	Sentence string
	// Questions are the scored generated questions (phase 2 output).
	Questions []question.Question
	// Queries are the issued search queries (sentence + top questions).
	Queries []string
	// Docs are the k_d selected documents after filtering and reranking.
	Docs []search.DocPayload
	// Chunks are the context passages handed to the model.
	Chunks []chunk.Chunk
	// FilteredSKG counts documents dropped by the source filter.
	FilteredSKG int
	// Candidates counts the unique retrieved documents before selection.
	Candidates int
	// Latency is the simulated wall-clock cost of retrieval: SERP calls,
	// document fetches and cross-encoder scoring.
	Latency time.Duration
}

// ChunkTexts returns the chunk contents in order.
func (e *Evidence) ChunkTexts() []string {
	out := make([]string, len(e.Chunks))
	for i, c := range e.Chunks {
		out[i] = c.Text
	}
	return out
}

// Retrieve runs the four phases for the fact, consulting the cache first.
// Concurrent calls for the same fact coalesce into a single retrieval: the
// first caller computes, the rest block and share the result.
func (p *Pipeline) Retrieve(f *dataset.Fact) (*Evidence, error) {
	return p.RetrieveCtx(context.Background(), f)
}

// RetrieveCtx is Retrieve with trace propagation: when ctx carries a
// sampled request trace, the singleflight leader records one span per
// retrieval phase and a coalesced follower records its wait. The context
// never cancels a retrieval — evidence is shared across callers, so the
// owner always runs to completion.
func (p *Pipeline) RetrieveCtx(ctx context.Context, f *dataset.Fact) (*Evidence, error) {
	s := p.cache.shard(f.ID)
	s.mu.Lock()
	e, ok := s.entries[f.ID]
	if !ok {
		e = &evidenceEntry{done: make(chan struct{})}
		if s.entries == nil {
			s.entries = map[string]*evidenceEntry{}
		}
		s.entries[f.ID] = e
	}
	s.mu.Unlock()
	if ok {
		select {
		case <-e.done:
		default:
			// Retrieval in flight elsewhere: this caller is a follower.
			_, end := obs.StartSpan(ctx, "rag_wait")
			<-e.done
			end()
		}
		return e.ev, e.err
	}
	e.ev, e.err = p.retrieve(ctx, f)
	if e.err != nil {
		// Do not cache failures: drop the entry (unless ClearCache swapped
		// the map under us) so a later call can retry.
		s.mu.Lock()
		if s.entries[f.ID] == e {
			delete(s.entries, f.ID)
		}
		s.mu.Unlock()
	}
	close(e.done)
	return e.ev, e.err
}

// Warm ensures the fact's evidence is cached, sharing the same
// singleflight path as Retrieve. It is the prefetch entry point the grid
// scheduler uses to retrieve once per fact before fanning models out;
// warming builds the fact's index shard as a side effect (the engine
// materialises pool + posting lists on first query).
func (p *Pipeline) Warm(f *dataset.Fact) error {
	_, err := p.Retrieve(f)
	return err
}

// ClearCache drops all cached evidence (call after changing Config).
func (p *Pipeline) ClearCache() {
	p.cache.clear()
}

// Invalidate drops the fact's cached evidence after a corpus epoch bump:
// the next retrieval for the fact recomputes over the new corpus, while
// every other fact keeps its warm evidence.
func (p *Pipeline) Invalidate(factID string) {
	p.cache.invalidate(factID)
}

// retrieve runs phases 1–4. The sentence is embedded once; every question
// and fetched document is scored from its sparse embedding against it, and
// chunks come from each selected document's sentence split. The in-process
// engine serves document vectors and splits from its doc table; any other
// searcher's payloads are embedded and split on the fly by
// search.EvidenceOf. Evidence is golden-tested against the dense reference
// (per-pair Score, plain Fetch, chunk.Sliding), since result-store
// fingerprints and served verdicts flow from it.
func (p *Pipeline) retrieve(ctx context.Context, f *dataset.Fact) (*Evidence, error) {
	cfg := p.Config
	ev := &Evidence{}

	// Phase 1: triple transformation.
	ev.Sentence = verbalize.Sentence(f)
	sentVec := text.SparseEmbed(ev.Sentence)

	// Phase 2: question generation and ranking.
	endQuestions := phaseSpan(ctx, "rag_questions", questionsHist)
	qs := question.Generate(f, cfg.NumQuestions)
	cands := make([]rerank.Candidate, len(qs))
	for i := range qs {
		cands[i] = rerank.Candidate{Text: qs[i].Text, Vec: text.SparseEmbed(qs[i].Text)}
	}
	ranked := rerank.RankVecs(p.questionRanker, sentVec, ev.Sentence, cands)
	for _, r := range ranked {
		qs[r.Index].Score = r.Score
	}
	ev.Questions = qs
	kept := rerank.FilterThreshold(ranked, cfg.Tau)
	if len(kept) > cfg.SelectedQuestions {
		kept = kept[:cfg.SelectedQuestions]
	}
	ev.Queries = append(ev.Queries, ev.Sentence)
	for _, r := range kept {
		ev.Queries = append(ev.Queries, qs[r.Index].Text)
	}
	endQuestions()

	// Phase 3: document retrieval and filtering.
	endSearch := phaseSpan(ctx, "rag_search", searchHist)
	seen := map[string]bool{}
	var serpItems []search.SERPItem
	for _, q := range ev.Queries {
		items, err := p.Searcher.Search(f.ID, q, cfg.SERPSize)
		if err != nil {
			return nil, fmt.Errorf("rag: search %q: %w", q, err)
		}
		for _, it := range items {
			if seen[it.DocID] {
				continue
			}
			seen[it.DocID] = true
			if cfg.FilterSKG && isSKGSource(it.Host) {
				ev.FilteredSKG++
				continue
			}
			serpItems = append(serpItems, it)
		}
	}
	ev.Candidates = len(serpItems)
	if len(serpItems) > cfg.CandidateCap {
		serpItems = serpItems[:cfg.CandidateCap]
	}
	endSearch()

	// Phase 4a: fetch and rerank documents against the sentence. The batch
	// scorer amortises the reference's noise-key prefix across the pool.
	endRerank := phaseSpan(ctx, "rag_rerank", rerankHist)
	fetch := p.fetchEvidence
	if ef, ok := p.Searcher.(search.EvidenceFetcher); ok {
		fetch = ef.FetchEvidence
	}
	score := p.docRanker.ScoreBatch(sentVec, ev.Sentence)
	type scoredDoc struct {
		ev    search.DocEvidence
		score float64
	}
	var docs []scoredDoc
	for _, it := range serpItems {
		de, err := fetch(it.DocID)
		if err != nil {
			return nil, fmt.Errorf("rag: fetch %s: %w", it.DocID, err)
		}
		if de.Empty || de.Text == "" {
			continue // extraction failures carry no usable evidence
		}
		docs = append(docs, scoredDoc{ev: de, score: score(de.Vec, de.Full)})
	}
	// Sort an index permutation instead of swapping the fat DocEvidence
	// entries. (score desc, doc ID asc) is a total order over unique doc
	// IDs, so the permutation equals the retired sort.SliceStable's order
	// exactly.
	order := make([]int, len(docs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case docs[a].score > docs[b].score:
			return -1
		case docs[a].score < docs[b].score:
			return 1
		}
		return strings.Compare(docs[a].ev.DocID, docs[b].ev.DocID)
	})
	if len(order) > cfg.SelectedDocs {
		order = order[:cfg.SelectedDocs]
	}
	endRerank()

	// Phase 4b: sliding-window chunking over the selected documents.
	endChunk := phaseSpan(ctx, "rag_chunk", chunkHist)
	for _, i := range order {
		de := &docs[i].ev
		ev.Docs = append(ev.Docs, de.DocPayload)
		ev.Chunks = append(ev.Chunks, de.Chunks(cfg.Window)...)
	}
	if len(ev.Chunks) > cfg.MaxChunks {
		ev.Chunks = ev.Chunks[:cfg.MaxChunks]
	}
	endChunk()

	ev.Latency = p.retrievalLatency(f, len(ev.Queries), ev.Candidates)
	return ev, nil
}

// fetchEvidence fetches a document's payload from a searcher without a doc
// table and builds its scoring state on the fly.
func (p *Pipeline) fetchEvidence(docID string) (search.DocEvidence, error) {
	d, err := p.Searcher.Fetch(docID)
	if err != nil {
		return search.DocEvidence{}, err
	}
	return search.EvidenceOf(d), nil
}

// retrievalLatency models the wall-clock cost of phase 3 and 4: one SERP
// round-trip per query, one fetch per candidate (amortised: fetches are
// pipelined), and a cross-encoder pass per candidate.
func (p *Pipeline) retrievalLatency(f *dataset.Fact, nQueries, nCandidates int) time.Duration {
	secs := 0.20*float64(nQueries) + // SERP round-trips
		0.004*float64(nCandidates) + // pipelined fetch + parse
		0.0045*float64(nCandidates) // cross-encoder scoring
	secs = det.Jitter(secs+0.25, 0.15, "rag-latency", f.ID)
	return time.Duration(secs * float64(time.Second))
}

// isSKGSource reports whether the host belongs to S_KG, the set of original
// KG source pages (Wikipedia for DBpedia/FactBench facts).
func isSKGSource(host string) bool {
	return host == "en.wikipedia.org"
}

// GenerationCost models the offline cost of building the RAG dataset for
// one fact (paper Table 3): LLM question generation, SERP retrieval, and
// webpage fetching.
type GenerationCost struct {
	QuestionGenTime   time.Duration
	QuestionGenTokens int
	SERPTime          time.Duration
	FetchTime         time.Duration
}

// CostFor returns the simulated per-fact generation cost, calibrated to the
// paper's averages (9.60 s / 672.58 tokens question generation, 3.60 s SERP
// retrieval, 350 s document fetching).
func CostFor(f *dataset.Fact) GenerationCost {
	qt := det.Gaussian(9.60, 1.4, "cost-qt", f.ID)
	tok := det.Gaussian(672.58, 85, "cost-tok", f.ID)
	st := det.Gaussian(3.60, 0.5, "cost-serp", f.ID)
	ft := det.Gaussian(350, 40, "cost-fetch", f.ID)
	if qt < 1 {
		qt = 1
	}
	if tok < 100 {
		tok = 100
	}
	if st < 0.5 {
		st = 0.5
	}
	if ft < 30 {
		ft = 30
	}
	return GenerationCost{
		QuestionGenTime:   time.Duration(qt * float64(time.Second)),
		QuestionGenTokens: int(tok),
		SERPTime:          time.Duration(st * float64(time.Second)),
		FetchTime:         time.Duration(ft * float64(time.Second)),
	}
}
