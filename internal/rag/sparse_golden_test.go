package rag

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"factcheck/internal/chunk"
	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/question"
	"factcheck/internal/rerank"
	"factcheck/internal/search"
	"factcheck/internal/verbalize"
	"factcheck/internal/world"
)

// denseRetrieve is the differential reference for Pipeline.retrieve: the
// retired dense scoring path. Every rerank call re-embeds both strings
// (CrossEncoder.Score), documents come from plain Searcher.Fetch, and
// chunking re-splits each selected document's text (chunk.Sliding). It
// shares no scoring, fetching or chunking code with production, so
// equality pins the sparse embeddings, the doc table's precomputed vectors
// and cached splits, and the batch scorer.
func denseRetrieve(p *Pipeline, f *dataset.Fact) (*Evidence, error) {
	cfg := p.Config
	ev := &Evidence{Sentence: verbalize.Sentence(f)}

	qs := question.Generate(f, cfg.NumQuestions)
	ranked := make([]rerank.Ranked, len(qs))
	for i := range qs {
		ranked[i] = rerank.Ranked{Index: i, Score: p.questionRanker.Score(ev.Sentence, qs[i].Text)}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Score > ranked[j].Score })
	for _, r := range ranked {
		qs[r.Index].Score = r.Score
	}
	ev.Questions = qs
	ev.Queries = []string{ev.Sentence}
	for _, r := range ranked {
		if r.Score < cfg.Tau || len(ev.Queries) > cfg.SelectedQuestions {
			break
		}
		ev.Queries = append(ev.Queries, qs[r.Index].Text)
	}

	seen := map[string]bool{}
	var items []search.SERPItem
	for _, q := range ev.Queries {
		res, err := p.Searcher.Search(f.ID, q, cfg.SERPSize)
		if err != nil {
			return nil, err
		}
		for _, it := range res {
			if seen[it.DocID] {
				continue
			}
			seen[it.DocID] = true
			if cfg.FilterSKG && it.Host == "en.wikipedia.org" {
				ev.FilteredSKG++
				continue
			}
			items = append(items, it)
		}
	}
	ev.Candidates = len(items)
	if len(items) > cfg.CandidateCap {
		items = items[:cfg.CandidateCap]
	}

	type scoredDoc struct {
		doc   search.DocPayload
		score float64
	}
	var docs []scoredDoc
	for _, it := range items {
		d, err := p.Searcher.Fetch(it.DocID)
		if err != nil {
			return nil, err
		}
		if d.Empty || d.Text == "" {
			continue
		}
		docs = append(docs, scoredDoc{doc: d, score: p.docRanker.Score(ev.Sentence, d.Title+" "+d.Text)})
	}
	sort.SliceStable(docs, func(i, j int) bool {
		if docs[i].score != docs[j].score {
			return docs[i].score > docs[j].score
		}
		return docs[i].doc.DocID < docs[j].doc.DocID
	})
	if len(docs) > cfg.SelectedDocs {
		docs = docs[:cfg.SelectedDocs]
	}
	for _, sd := range docs {
		ev.Docs = append(ev.Docs, sd.doc)
		ev.Chunks = append(ev.Chunks, chunk.Sliding(sd.doc.DocID, sd.doc.Text, cfg.Window)...)
	}
	if len(ev.Chunks) > cfg.MaxChunks {
		ev.Chunks = ev.Chunks[:cfg.MaxChunks]
	}
	ev.Latency = p.retrievalLatency(f, len(ev.Queries), ev.Candidates)
	return ev, nil
}

// goldenPipeline builds the production pipeline over the engine of all
// three datasets at the small world, scale 0.05.
func goldenPipeline(t *testing.T) (*Pipeline, []*dataset.Dataset) {
	t.Helper()
	w := world.New(world.SmallConfig())
	var ds []*dataset.Dataset
	for _, name := range dataset.AllNames {
		ds = append(ds, dataset.Build(w, name, 0.05))
	}
	return New(search.NewEngine(corpus.NewGenerator(w), ds...)), ds
}

// assertMatchesDense retrieves f through production Retrieve and through
// the dense reference and requires deeply equal Evidence — question
// scores, query selection, document ranks, chunk texts, simulated latency.
func assertMatchesDense(t *testing.T, p *Pipeline, f *dataset.Fact, what string) {
	t.Helper()
	got, err := p.Retrieve(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := denseRetrieve(p, f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s, fact %s: evidence differs from the dense reference:\ngot:  %+v\nwant: %+v", what, f.ID, got, want)
	}
}

// TestSparseRetrieveMatchesDenseGolden is the pipeline-level golden test:
// for every fact of all three datasets, production Evidence must equal the
// dense reference's. Result-store fingerprints, persisted snapshots and
// served verdicts all hang off this: RAG outcomes depend on the pipeline
// only through Evidence, and the other methods never call it.
func TestSparseRetrieveMatchesDenseGolden(t *testing.T) {
	t.Parallel()
	p, ds := goldenPipeline(t)
	for _, d := range ds {
		if len(d.Facts) < 3 {
			t.Fatalf("%s fixture has %d facts, need >= 3", d.Name, len(d.Facts))
		}
		for _, f := range d.Facts {
			assertMatchesDense(t, p, f, string(d.Name))
		}
	}
}

// TestSparseRetrieveMatchesDenseAcrossConfigs sweeps the config axes that
// steer the scoring and chunking stages (window size, candidate cap,
// selected docs, question threshold, source filter) and pins production ==
// dense reference under each, for every fact of all three datasets.
func TestSparseRetrieveMatchesDenseAcrossConfigs(t *testing.T) {
	t.Parallel()
	p, ds := goldenPipeline(t)
	mutate := []func(*Config){
		func(c *Config) { c.Window = 1 },
		func(c *Config) { c.Window = 5 },
		func(c *Config) { c.CandidateCap = 7 },
		func(c *Config) { c.SelectedDocs = 2 },
		func(c *Config) { c.Tau = 0.1; c.SelectedQuestions = 5 },
		func(c *Config) { c.FilterSKG = false },
	}
	var facts []*dataset.Fact
	for _, d := range ds {
		facts = append(facts, d.Facts...)
	}
	for i, m := range mutate {
		p.Config = DefaultConfig()
		m(&p.Config)
		p.ClearCache()
		// The fixture holds more facts than the engine keeps pools for;
		// alternating the sweep direction lets each pass start on the
		// pools the previous one left warm.
		slices.Reverse(facts)
		for _, f := range facts {
			assertMatchesDense(t, p, f, fmt.Sprintf("config mutation %d", i))
		}
	}
}
